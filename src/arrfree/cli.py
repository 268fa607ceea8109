"""Command line front end.

Subcommands build arrangements, compute exponents, search for and verify
addition chains, run the removal census, and sweep the intermediate family
against its freeness rule.  Exit codes keep five meanings apart: 0 for
success or an affirmative verdict, 1 for a negative mathematical verdict,
2 for invalid parameters, 3 for I/O or parse failures, and 4 for an
internal error, a bug, with its traceback on stderr.  Every error that
arrfree raises on purpose derives from ``ArrfreeError``: ``FormatError``
exits 3 like ``OSError``, every other one exits 2.

Every report has a --json twin that mirrors the human-readable text;
timing goes to stderr only, so JSON payloads are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

from .arrangement import Arrangement
from .catalog import (
    InvalidParameter,
    canonical_induction_order,
    group,
    intermediate,
    reflection_arrangement,
    restriction_by_type,
)
from .cyclotomic import MAX_DIM, ArrfreeError, FormatError
from .freeness import (
    InductionTable,
    _read_exps,
    certify_chain,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    necessary_condition_counts,
    verify_induction_table,
)

OK = 0
VERDICT = 1
USAGE = 2
IOERR = 3
INTERNAL = 4


def _load(args, parse):
    """Parse the UTF-8 text of ``args.file``; also the head of the file
    command's payload."""
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{args.file}: not UTF-8 text (byte {e.start})") \
            from None
    return parse(text), {"command": args.cmd, "file": args.file,
                         "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _refuse(args, names, reason: str) -> None:
    """Refuse those of the options ``names`` that were given."""
    given = [f"--{n}" for n in names if getattr(args, n) is not None]
    if given:
        raise InvalidParameter(f"{', '.join(given)}: {reason}")


def _print(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands -------------------------------------------------------------

def cmd_build(args) -> int:
    if args.family:
        _refuse(args, ("restrict",), "not used with --family")
        if args.r is None or args.ell is None or args.k is None:
            raise InvalidParameter("--family intermediate needs --r, --ell,"
                                   " and --k")
        arr = intermediate(args.r, args.ell, args.k)
        source = f"intermediate r={args.r} ell={args.ell} k={args.k}"
    else:
        _refuse(args, ("r", "ell", "k"), "not used with --group")
        g = group(args.group)
        if args.restrict is not None:
            arr = restriction_by_type(g, args.restrict)
            source = f"{args.group} restricted to type {args.restrict}"
        else:
            arr = reflection_arrangement(g)
            source = f"reflection arrangement of {args.group}"
    text = arr.to_text()
    if args.out:
        Path(args.out).write_text(text)
        lines = [f"wrote {len(arr)} hyperplanes (dim {arr.dim},"
                 f" zeta {arr.order}) to {args.out}"]
    else:
        lines = [text.rstrip("\n")]
    payload = {
        "command": "build",
        "source": source,
        "dim": arr.dim,
        "zeta": arr.order,
        "hyperplanes": len(arr),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "out": args.out,
    }
    _print(args, payload, lines)
    return OK


def cmd_exponents(args) -> int:
    arr, payload = _load(args, Arrangement.from_text)
    exps = arr.candidate_exponents()
    payload["hyperplanes"] = len(arr)
    if exps is None:
        payload["splits"] = False
        _print(args, payload,
               ["characteristic polynomial does not split over the"
                " nonnegative integers"])
        return VERDICT
    total = sum(exps)
    payload["splits"] = True
    payload["exponents"] = list(exps)
    payload["sum_matches_cardinality"] = total == len(arr)
    lines = [" ".join(str(e) for e in exps),
             f"sum {total} {'matches' if total == len(arr) else 'differs from'}"
             f" cardinality {len(arr)}"]
    _print(args, payload, lines)
    return OK


def cmd_induce(args) -> int:
    if args.order == "canonical" and args.force:
        raise InvalidParameter("--force: not used with --order canonical")
    arr, payload = _load(args, Arrangement.from_text)
    if args.order == "canonical":
        # |intermediate(r, ell, ell - 2)| = ell - 2 + r ell (ell - 1) / 2
        ell, lines = arr.dim, arr.dim * (arr.dim - 1) // 2
        n = len(arr) - ell + 2
        if ell < 3 or n % lines or n < 2 * lines:
            raise InvalidParameter(f"--order canonical: {len(arr)} hyperplanes"
                                   f" in dimension {ell} are no intermediate("
                                   f"r, ell, ell - 2) with r >= 2, ell >= 3")
        rep = certify_chain(ell, arr.order,
                            canonical_induction_order(n // lines, ell))
        if not rep:
            payload["verdict"] = "invalid-chain"
            payload["detail"] = rep.describe()
            _print(args, payload, [rep.describe()])
            return VERDICT
        cert = rep.certificate
    else:
        res = is_inductively_free(arr, force=args.force)
        if not res:
            payload["verdict"] = "not-inductively-free"
            payload["detail"] = res.describe()
            _print(args, payload, [f"not inductively free: {res.describe()}"])
            return VERDICT
        cert = res
    table = emit_induction_table(arr, cert)
    payload["verdict"] = "inductively-free"
    payload["exponents"] = list(cert.exponents)
    payload["table"] = table
    _print(args, payload, [table.rstrip("\n")])
    return OK


def cmd_verify_table(args) -> int:
    table, payload = _load(args, InductionTable.parse)
    rep = verify_induction_table(table)
    payload["ok"] = rep.ok
    if rep.ok:
        payload["exponents"] = list(rep.exponents)
        _print(args, payload, [rep.describe()])
        return OK
    payload["failures"] = [{"row": f.row, "message": f.message}
                           for f in rep.failures]
    _print(args, payload, [rep.describe()])
    return VERDICT


def cmd_count_nec(args) -> int:
    arr, payload = _load(args, Arrangement.from_text)
    rep = necessary_condition_counts(arr, exponents=args.exponents)
    payload.update(rep.payload())
    lines = [f"exponents {' '.join(str(e) for e in rep.exponents)}"]
    lines += rep.to_lines()
    if rep.death_level is not None:
        lines.append(f"scan dies at level {rep.death_level}")
    _print(args, payload, lines)
    return OK


def cmd_classify(args) -> int:
    if not 2 <= args.max_ell <= MAX_DIM:
        raise InvalidParameter(f"--max-ell {args.max_ell}: need at least 2"
                               f" and at most {MAX_DIM}")
    rows = []
    all_agree = True
    for ell in range(min(3, args.max_ell), args.max_ell + 1):
        for k in range(ell + 1):
            res = is_inductively_free(intermediate(args.r, ell, k),
                                      force=args.force)
            verdict = bool(res)
            predicted = args.r == 2 or ell - 2 <= k
            all_agree = all_agree and verdict == predicted
            rows.append({"r": args.r, "ell": ell, "k": k,
                         "inductively_free": verdict,
                         "predicted": predicted})
    lines = []
    for row in rows:
        got = "IF" if row["inductively_free"] else "NotIF"
        want = "IF" if row["predicted"] else "NotIF"
        mark = "agree" if row["inductively_free"] == row["predicted"] \
            else "DISAGREE"
        lines.append(f"r={row['r']} ell={row['ell']} k={row['k']}:"
                     f" {got} (rule says {want}) {mark}")
    lines.append("all cells agree with the freeness rule" if all_agree
                 else "some cells disagree with the freeness rule")
    payload = {"command": "classify", "r": args.r, "max_ell": args.max_ell,
               "cells": rows, "all_agree": all_agree}
    _print(args, payload, lines)
    return OK if all_agree else VERDICT


def cmd_hereditary(args) -> int:
    arr, payload = _load(args, Arrangement.from_text)
    rep = hereditarily_inductively_free(arr, force=args.force)
    flats = []
    for mask in sorted(rep.verdicts, key=lambda m: (m.bit_count(), m)):
        idx = [i for i in range(len(arr)) if mask >> i & 1]
        flats.append({"hyperplanes": idx,
                      "inductively_free": rep.verdicts[mask]})
    lines = []
    for f in flats:
        name = "ambient space" if not f["hyperplanes"] else \
            "flat through " + ", ".join(str(i) for i in f["hyperplanes"])
        lines.append(f"{name}: {'IF' if f['inductively_free'] else 'NotIF'}")
    lines.append("hereditarily inductively free" if rep.ok
                 else "not hereditarily inductively free")
    payload.update(ok=rep.ok, flats=flats)
    _print(args, payload, lines)
    return OK if rep.ok else VERDICT


# -- parser ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arrfree",
        description="Exact computations with hyperplane arrangements over"
                    " cyclotomic fields.")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="construct an arrangement file")
    kind = b.add_mutually_exclusive_group(required=True)
    kind.add_argument("--family", choices=["intermediate"],
                      help="parametric family")
    kind.add_argument("--group", metavar="NAME",
                      help="shipped reflection group, e.g. G33 (an"
                           " unknown name lists them all)")
    b.add_argument("--r", type=int, help="root-of-unity order")
    b.add_argument("--ell", type=int, help="dimension")
    b.add_argument("--k", type=int, help="number of coordinate hyperplanes")
    b.add_argument("--restrict", metavar="TYPE",
                   help="restrict the group arrangement to a flat of this"
                        " type (e.g. A1, A1^2, A2, A3, A1A2, G(3,3,3))")
    b.add_argument("--out", metavar="FILE", help="output path")

    e = sub.add_parser("exponents",
                       help="exponent candidates from the characteristic"
                            " polynomial")
    e.add_argument("file")

    i = sub.add_parser("induce", help="search for an addition chain")
    i.add_argument("file")
    i.add_argument("--force", action="store_true", help="allow rank above 4")
    i.add_argument("--order", choices=["search", "canonical"],
                   default="search",
                   help="canonical replays the closed-form chain of"
                        " intermediate(r, ell, ell-2), with r and ell read"
                        " off the file, instead of searching")

    v = sub.add_parser("verify-table", help="replay and check a chain table")
    v.add_argument("file")

    c = sub.add_parser("count-nec",
                       help="level-by-level census of the removal test")
    c.add_argument("file")
    # argparse names the type in its error message
    c.register("type", "exponent list", _read_exps)
    c.add_argument("--exponents", type="exponent list", metavar="B1,B2,...",
                   help="starting exponents (default: computed from the"
                        " characteristic polynomial)")

    l = sub.add_parser("classify",
                       help="sweep the intermediate family against its"
                            " freeness rule")
    l.add_argument("--r", type=int, required=True)
    l.add_argument("--max-ell", type=int, required=True)
    l.add_argument("--force", action="store_true")

    h = sub.add_parser("hereditary",
                       help="decide inductive freeness of every restriction")
    h.add_argument("file")
    h.add_argument("--force", action="store_true")
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        # looked up per call, so a replaced cmd_* runs
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except (ArrfreeError, OSError) as e:
        print(f"error: {str(e).replace('pass force=True', 'pass --force')}",
              file=sys.stderr)
        return IOERR if isinstance(e, (FormatError, OSError)) else USAGE
    except Exception:
        import traceback
        traceback.print_exc()
        return INTERNAL
    finally:
        print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
