"""Command-line front end.

Every subcommand is a thin wrapper over a library call: inputs are JSON
files holding posets, lattices, or maps (auto-detected by shape), and
reports are emitted as JSON with a format tag, as plain text, or as DOT
where a diagram makes sense. Exit codes: 0 for success or a positive
verdict, 1 for a negative verdict, 3 for bad input, 4 for a broken
internal invariant. Every search runs in this one process, whatever
the options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import and_, or_
from typing import Callable, Iterator, NamedTuple

from .algebras import (MAX_STAR_HOMS, make_pcdl, p_morphism_failure,
                       star_homs, variety_index)
from .amalgamation import (extension_property_bounded,
                           is_amalgamation_base_finite, lift_through)
from .catalog import catalog
from .congruences import (MAX_CONGRUENCES, dual_congruence,
                          enumerate_congruences,
                          is_congruence_extensile_bounded, quotient)
from .duality import AbstractLattice, _order_masks, dual_lattice
from .posets import OrderMap, Poset, bits, classify_map
from .qmodel import (build_quotient_model, check_lift_cases,
                     divergence_report, verify_collapse, verify_separation)

FORMAT_TAG = "pcdl/1"
# the most elements of a lattice built from a poset file: dual writes two
# tables of size-squared entries, 94 MB at this many elements and four
# times as much at each further doubling, and star-homs lists the homs
DUAL_MAX = 2048


class CliInputError(Exception):
    pass


def _load_json(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliInputError("%s: line %d column %d: %s"
                            % (path, e.lineno, e.colno, e.msg))
    except RecursionError:
        raise CliInputError("%s: JSON nested too deeply" % path)


def _load_poset_or_lattice(path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CliInputError("%s: expected a JSON object" % path)
    if "covers" in obj:
        return Poset.from_dict(obj)
    if "joins" in obj and "meets" in obj:
        return AbstractLattice.from_dict(obj)
    raise CliInputError("%s: expected a poset (covers) or a lattice "
                        "(joins and meets)" % path)


def _refuse_large_dual(poset: Poset, path: str) -> None:
    """Refuse a poset with more than DUAL_MAX up-sets before listing them."""
    try:
        poset.up_sets(DUAL_MAX)
    except ValueError:
        raise CliInputError("%s: the dual lattice has more than %d "
                            "elements, the most pcdl builds from a poset"
                            % (path, DUAL_MAX)) from None


def _load_dual(path: str) -> Poset:
    """The dual poset of a poset or lattice file; a poset builds no lattice."""
    obj = _load_poset_or_lattice(path)
    return obj if isinstance(obj, Poset) else obj.algebra.base


def _load_algebra(path: str):
    """Returns (algebra, labels, to_rep) for a poset or lattice file.

    to_rep translates positions of the input lattice to positions of the
    up-set representation; it is the identity when the input is a poset.
    """
    obj = _load_poset_or_lattice(path)
    if isinstance(obj, Poset):
        _refuse_large_dual(obj, path)
        alg = make_pcdl(obj)
        return alg, list(alg.labels), range(alg.size)
    return obj.algebra, list(obj.labels), obj.unit_table


def _load_map(path: str) -> OrderMap:
    return OrderMap.from_dict(_load_json(path))


def _hom_label_maps(homs, labels_s, to_rep_s, labels_t, to_rep_t):
    from_rep_t = {rep: i for i, rep in enumerate(to_rep_t)}
    return [{labels_s[i]: labels_t[from_rep_t[h.table[rep]]]
             for i, rep in enumerate(to_rep_s)} for h in homs]


class _UpSetTable(NamedTuple):
    """The join (op or_) or meet (op and_) table of an up-set lattice.

    It stands in a report for the list of rows that to_dict() gives, and
    the writers read it straight from the carrier.
    """

    carrier: tuple
    op: Callable

    def rows(self, head: str, sep: str, tail: str) -> Iterator[str]:
        """Each row as head + its entries joined by sep + tail.

        A row takes one map of the operation, one lookup of each result's
        index text and one join.
        """
        carrier, op = self.carrier, self.op
        text = {m: str(i) for i, m in enumerate(carrier)}.__getitem__
        for a in carrier:
            yield head + sep.join(map(text, map(op, repeat(a), carrier))) \
                + tail


def _lattice_doc(lat) -> dict:
    """lat.to_dict() of an up-set lattice, its tables left to the writers."""
    return {"elements": list(lat.labels),
            "joins": _UpSetTable(lat.carrier, or_),
            "meets": _UpSetTable(lat.carrier, and_)}


def _render_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if type(value) is _UpSetTable:
        entry = "\n" + pad + "  - "
        return "\n".join(value.rows(pad + "-" + entry, entry, ""))
    if isinstance(value, dict):
        lines = []
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list, _UpSetTable)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
        return "\n".join(lines) if lines else "%s(empty)" % pad
    return "%s%s" % (pad, value)


def _write_json(write, value, nl: str = "\n") -> None:
    """Write the bytes of json.dumps(value, sort_keys=True, indent=2).

    Every line after the first is indented as nl says. Dicts with string
    keys and lists of lists or dicts are written here, and so are lists
    of plain ints or of plain strings, in one join each, and the tables
    of an up-set lattice, in one join per row; any other value
    goes to json.dumps, a container re-indented to the current depth, so
    no value comes out in a form the encoder would not give.
    """
    inner = nl + "  "
    kind = type(value)
    if kind is _UpSetTable:
        row_nl = inner + "  "
        sep = "[" + inner
        for row in value.rows("[" + row_nl, "," + row_nl, inner + "]"):
            write(sep + row)
            sep = "," + inner
        write(nl + "]")
        return
    if kind is dict and value and all(type(k) is str for k in value):
        sep = "{" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(write, value[key], inner)
            sep = "," + inner
        write(nl + "}")
        return
    if kind is list and value:
        kinds = set(map(type, value))
        if kinds == {int} or kinds == {str}:
            text = map(int.__repr__ if kinds == {int}
                       else encode_basestring_ascii, value)
            write("[" + inner + ("," + inner).join(text) + nl + "]")
            return
        if kinds <= {list, dict}:
            sep = "[" + inner
            for item in value:
                write(sep)
                _write_json(write, item, inner)
                sep = "," + inner
            write(nl + "]")
            return
    if value and isinstance(value, (dict, list, tuple)):
        write(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))
    else:
        # the layout does not change a scalar or an empty container, and
        # the default encoder leaves no cyclic garbage behind
        write(json.dumps(value))


def _emit(args, payload, dot_text=None) -> None:
    if dot_text is None:
        payload["format"] = FORMAT_TAG
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if dot_text is not None:
            fh.write(dot_text)
        elif args.format == "json":
            # the bytes of json.dumps, written a table row at a time
            _write_json(fh.write, payload)
            fh.write("\n")
        else:
            fh.write(_render_text(payload) + "\n")


def _cmd_dual(args) -> int:
    obj = _load_poset_or_lattice(args.infile)
    if isinstance(obj, Poset):
        _refuse_large_dual(obj, args.infile)
        out = dual_lattice(obj)
    else:
        # certified distributive by its unit isomorphism when it was loaded
        out = obj.algebra.base
    if args.dot:
        drawn = (Poset(out.labels, _order_masks(out, or_))
                 if isinstance(obj, Poset) else out)
        _emit(args, {}, drawn.to_dot("dual"))
    else:
        _emit(args, _lattice_doc(out) if isinstance(obj, Poset)
              else out.to_dict())
    return 0


def _cmd_check_pspace_map(args) -> int:
    f = _load_map(args.infile)
    failure = p_morphism_failure(f)
    payload = {
        "classification": classify_map(f),
        "p_morphism": failure is None,
        "onto": f.is_onto(),
        "failure": failure,
    }
    _emit(args, payload)
    return 0 if failure is None else 1


def _cmd_star_homs(args) -> int:
    A, labels_s, rep_s = _load_algebra(args.src)
    B, labels_t, rep_t = _load_algebra(args.dst)
    homs = star_homs(A, B)
    if args.onto:
        homs = [h for h in homs if h.is_onto()]
    payload = {
        "count": len(homs),
        "homs": _hom_label_maps(homs, labels_s, rep_s, labels_t, rep_t),
    }
    _emit(args, payload)
    return 0 if homs else 1


def _cmd_variety_index(args) -> int:
    _emit(args, {"variety_index": variety_index(_load_dual(args.infile))})
    return 0


def _cmd_congruences(args) -> int:
    thetas = enumerate_congruences(_load_dual(args.infile))
    payload = {
        "count": len(thetas),
        "congruences": [{"erased": list(t.labels())} for t in thetas],
    }
    _emit(args, payload)
    return 0


def _cmd_quotient(args) -> int:
    A, _, _ = _load_algebra(args.infile)
    erased = [s for s in args.by.split(",") if s]
    theta = dual_congruence(A.base, erased)
    q = quotient(A, theta)
    payload = {
        "algebra": _lattice_doc(q.algebra),
        "projection": q.projection.map_labels(),
    }
    _emit(args, payload)
    return 0


def _cmd_extensile(args) -> int:
    res = is_congruence_extensile_bounded(_load_dual(args.infile), args.n,
                                          args.bound)
    payload = {
        "verdict": res.verdict,
        "instances": res.instances,
        "bound": res.bound,
        "witness": None,
    }
    _emit(args, payload)
    return 0


def _cmd_amalgam(args) -> int:
    P = _load_dual(args.infile)
    verdict = is_amalgamation_base_finite(P, args.n)
    payload = {
        "is_base": verdict.is_base,
        "forbidden_is": list(verdict.forbidden),
        "variety_index": variety_index(P),
        "witnesses": {str(i): w.map_labels()
                      for i, w in verdict.witnesses.items()},
    }
    code = 0 if verdict.is_base else 1
    if args.oracle:
        res = extension_property_bounded(P, args.n, args.bound)
        payload["oracle"] = res.verdict
        payload["oracle_instances"] = res.instances
        payload["oracle_bound"] = res.bound
    _emit(args, payload)
    return code


def _cmd_lift(args) -> int:
    gamma = _load_map(args.gamma)
    alpha = _load_map(args.alpha)
    beta = lift_through(gamma, alpha)
    payload = {
        "found": beta is not None,
        "beta": beta.map_labels() if beta is not None else None,
    }
    _emit(args, payload)
    return 0 if beta is not None else 1


def _qmodel_dot(model) -> str:
    lines = ["digraph qmodel {", "  rankdir=BT;"]
    for poset, prefix, title in ((model.total, "t", "big poset"),
                                 (model.quotient, "q", "quotient")):
        lines.append("  subgraph cluster_%s {" % prefix)
        lines.append('    label="%s";' % title)
        for i, lab in enumerate(poset.labels):
            lines.append('    %s%d [label="%s"];' % (prefix, i, lab))
        for i in range(poset.n):
            for j in bits(poset.covers_up[i]):
                lines.append("    %s%d -> %s%d;" % (prefix, i, prefix, j))
        lines.append("  }")
    for i in range(model.total.n):
        lines.append("  t%d -> q%d [style=dashed, constraint=false];"
                     % (i, model.collapse(i)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_q_model(args) -> int:
    model = build_quotient_model(args.N, args.m)
    if args.dot:
        _emit(args, {}, _qmodel_dot(model))
        return 0
    payload = {
        "full_fans": model.full_fans,
        "merged_fans": model.merged_fans,
        "sizes": {"total": model.total.n, "quotient": model.quotient.n},
        "collapse": model.collapse.map_labels(),
    }
    which = args.verify
    ok = True
    if which in ("all", "collapse"):
        rep = verify_collapse(model)
        ok = ok and rep.passed
        payload["collapse_check"] = {
            "passed": rep.passed,
            "points_checked": len(rep.entries),
            "component_embeddings": [list(e)
                                     for e in rep.component_embeddings],
        }
    if which in ("all", "separation"):
        rep = verify_separation(model)
        ok = ok and rep.passed
        payload["separation_check"] = {
            "passed": rep.passed,
            "separation_checks": rep.separation_checks,
            "disconnected_pairs": rep.disconnected_pairs,
            "downset_formula_checks": rep.downset_formula_checks,
            "vacuous": rep.vacuous,
        }
    # the divergence report runs the lift check itself; reuse its result
    div = (divergence_report(model, args.bound)
           if which in ("all", "divergence") else None)
    if which in ("all", "lift"):
        rep = check_lift_cases(model, args.bound) if div is None else div.lift
        ok = ok and not rep.failures
        payload["lift_check"] = {
            "case_counts": rep.case_counts,
            "failures": len(rep.failures),
            "uncovered": rep.uncovered,
            "instances": rep.instances,
            "bound": rep.bound,
        }
    if div is not None:
        ok = ok and not div.lift.failures
        payload["divergence"] = {
            "total_forbidden": list(div.total_forbidden),
            "quotient_forbidden": list(div.quotient_forbidden),
            "diverges": div.diverges,
            "text": div.text,
        }
    _emit(args, payload)
    if which in ("all", "lift", "divergence") \
            and args.bound < model.quotient.n:
        # the bounded searches refuse such a bound (_require_room); here the
        # identity and the collapse still give a check, so only warn
        print("warning: bound %d is below the %d points of the quotient; "
              "only the identity and the collapse were checked"
              % (args.bound, model.quotient.n), file=sys.stderr)
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    rows = catalog(args.max_points, args.n, oracle=args.oracle,
                   bound=args.bound)
    _emit(args, {"max_points": args.max_points, "n": args.n, "rows": rows})
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bad input: exit 3, one line.

    Subparsers are made with the parser's own class, so they share this.
    """

    def error(self, message):
        raise CliInputError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="pcdl",
        description="finite pseudocomplemented distributive lattices "
                    "via their dual posets")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help, infile=True):
        sp = subs.add_parser(name, help=help, description=help)
        sp.set_defaults(func=func)
        if infile:
            sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--format", choices=["json", "text"], default="json",
                        help="report format (default json)")
        sp.add_argument("--out", help="write the report to a file")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and checked (at least 1), but "
                             "changes nothing: every search runs in one "
                             "process")
        return sp

    sp = sub("dual", _cmd_dual, "dualize a poset or a lattice")
    sp.add_argument("--dot", action="store_true",
                    help="emit a DOT diagram instead of JSON")

    sub("check-pspace-map", _cmd_check_pspace_map,
        "classify a map between posets")

    sp = sub("star-homs", _cmd_star_homs,
             "maps between algebras preserving star (at most %d)"
             % MAX_STAR_HOMS, infile=False)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--onto", action="store_true",
                    help="keep only the onto maps")

    sub("variety-index", _cmd_variety_index,
        "least n with the algebra in the index-n variety")

    sub("congruences", _cmd_congruences,
        "enumerate congruences (at most %d)" % MAX_CONGRUENCES)

    sp = sub("quotient", _cmd_quotient, "quotient by a congruence")
    sp.add_argument("--by", required=True,
                    help="comma-separated dual points the congruence "
                         "erases")

    sp = sub("extensile", _cmd_extensile,
             "count the (onto map, congruence) instances up to the bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bound", type=int, required=True)

    sp = sub("amalgam", _cmd_amalgam,
             "decide the amalgamation base property")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the bounded extension search")
    sp.add_argument("--bound", type=int, default=None)

    sp = sub("lift", _cmd_lift, "lift a map through an onto map",
             infile=False)
    sp.add_argument("--gamma", required=True,
                    help="JSON file with the onto map")
    sp.add_argument("--alpha", required=True,
                    help="JSON file with the map to lift")

    sp = sub("q-model", _cmd_q_model, "build and verify a fan-row model",
             infile=False)
    sp.add_argument("--N", type=int, required=True,
                    help="number of full components")
    sp.add_argument("--m", type=int, required=True,
                    help="number of merged components")
    sp.add_argument("--verify",
                    choices=["all", "collapse", "separation", "lift",
                             "divergence"],
                    default="all")
    sp.add_argument("--bound", type=int, default=6)
    sp.add_argument("--dot", action="store_true",
                    help="emit DOT of both posets and the collapse arrows")

    sp = sub("catalog", _cmd_catalog, "survey all duals of a given size",
             infile=False)
    sp.add_argument("--max-points", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--bound", type=int, default=None)
    return parser


def _check_numbers(args) -> None:
    for name, least in (("jobs", 1), ("n", 0), ("bound", 0), ("N", 0),
                        ("m", 0), ("max_points", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise CliInputError("--%s must be at least %d, got %d"
                                % (name.replace("_", "-"), least, value))


def _check_out(args) -> None:
    """Refuse an --out path that cannot be written, before any work.

    The file is neither created nor truncated, since --in may name it.
    """
    if not args.out:
        return
    if os.path.isdir(args.out):
        raise CliInputError("--out %s: is a directory" % args.out)
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise CliInputError("--out %s: no such directory %s"
                            % (args.out, folder))
    # an existing file is rewritten in place; a new one is made in folder
    if not (os.access(args.out, os.W_OK) if os.path.exists(args.out)
            else os.access(folder, os.W_OK | os.X_OK)):
        raise CliInputError("--out %s: not writable" % args.out)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_numbers(args)
        _check_out(args)
        return args.func(args)
    except (CliInputError, ValueError, OSError) as e:
        # OSError: a file named on the command line cannot be read or written
        print("error: %s" % e, file=sys.stderr)
        return 3
    except AssertionError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
