"""Regenerate the committed benchmark inputs under bench/inputs/.

Run from the repository root:

    python3 bench/make_inputs.py

It writes the fixed input files and ``bench/inputs/MANIFEST``, one
``<sha256>  <name>`` line per file.  The benchmark refuses to run when a
file no longer matches its manifest line, so a later change to the
catalog or the fixtures cannot silently change what a workload measures.

The 30 deletions of ``decide`` are text edits of the seven restrictions
(every restriction with 1, 2, 3 and 4 hyperplanes removed, then two
more), drawn once with ``DELETION_SEED``.  They are fixed rather than
drawn per run because their cost is heavy-tailed: a fresh draw per seed
moved a batch between 1.3 s and 4.1 s of deletion work.  The run seed
sets the order they run in, and the corrupted rows of ``replay``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).resolve().parent / "inputs"

# the seven paper restrictions that come with chain tables
FIXTURES = ("g29_a1", "g31_a1", "g33_a1sq", "g33_a2", "g34_a3",
            "g34_a1a2", "g34_a1cube")
# restrictions whose removal census is tabulated by criterion 4
CENSUS = (("g33_a1", "G33", "A1"), ("g34_a1sq", "G34", "A1^2"))
CELLS = [(3, ell, k) for ell in (3, 4) for k in range(ell + 1)]
CHAINS = (3, 4)  # canonical chains of intermediate(r, 6, 4)
DELETIONS = 30
DELETION_SEED = 0


def deletions(texts: dict) -> dict:
    """Restrictions with 1-4 hyperplane lines removed, as new .arr texts."""
    rng = random.Random(DELETION_SEED)
    out = {}
    for n in range(DELETIONS):
        stem = FIXTURES[n % len(FIXTURES)]
        k = 1 + (n // len(FIXTURES)) % 4
        header, *rows = texts[stem].splitlines()
        drop = set(rng.sample(range(len(rows)), k))
        out[f"del{n:02d}_{stem}_k{k}.arr"] = "\n".join(
            [header] + [r for i, r in enumerate(rows) if i not in drop]) + "\n"
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from arrfree.catalog import (canonical_induction_order, group,
                                 intermediate, restriction_by_type)
    from arrfree.freeness import (certify_chain, emit_induction_table,
                                  verify_induction_table)

    files: dict[str, str] = {}
    for stem in FIXTURES:
        text = (ROOT / "fixtures" / "tables" / f"{stem}.tbl").read_text()
        rep = verify_induction_table(text)
        if not rep:
            raise SystemExit(f"fixture {stem} does not replay")
        files[f"{stem}.tbl"] = text
        files[f"{stem}.arr"] = rep.certificate.replay().to_text()
    files.update(deletions({stem: files[f"{stem}.arr"] for stem in FIXTURES}))
    for stem, gname, tag in CENSUS:
        files[f"{stem}.arr"] = restriction_by_type(group(gname), tag).to_text()
    for r, ell, k in CELLS:
        files[f"int_{r}_{ell}_{k}.arr"] = intermediate(r, ell, k).to_text()
    for r in CHAINS:
        arr = intermediate(r, 6, 4)
        rep = certify_chain(arr.dim, arr.order,
                            canonical_induction_order(r, 6))
        if not rep:
            raise SystemExit(f"canonical chain of intermediate({r},6,4) fails")
        files[f"chain_{r}_6_4.tbl"] = emit_induction_table(arr,
                                                           rep.certificate)

    INPUTS.mkdir(exist_ok=True)
    manifest = []
    for name in sorted(files):
        data = files[name].encode()
        (INPUTS / name).write_bytes(data)
        manifest.append(f"{sha256(data)}  {name}\n")
    (INPUTS / "MANIFEST").write_text("".join(manifest))
    print(f"wrote {len(files)} inputs to {INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
