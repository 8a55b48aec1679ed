"""Write the ``check`` workload's documents for one seed.

    python3 perfbench/gen_inputs.py --seed 7 --out perfbench/_gen/check/seed-7

The seed fixes every coefficient and perturbation; the make-up of the set
does not depend on it.  Each (algebra, ring) pair below is paired with four
of the eight identity kinds, alternating down the list, and each pairing
gives one triple or map that satisfies the identity and one perturbed copy
that, as the reference evaluator confirms, fails it.  Half of the documents
name their algebra by spec string and half carry it inline.  ``manifest.json``
lists every document with its ``ghderiv check`` arguments and the verdict
and counterexample the reference evaluator computes for it.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

import reference as ref

# (spec, rings): d runs from 3 to 21; quat and tensor products live over Q.
ALGEBRAS = [
    ("tn2", ("q", "z5")),
    ("mn2", ("q", "z5")),
    ("poly(ring,3)", ("q", "z5")),
    ("quat", ("q",)),
    ("tn3", ("q", "z5")),
    ("poly(tn2,2)", ("q", "z5")),
    ("mn3", ("q", "z5")),
    ("tensor(tn2,tn2)", ("q",)),
    ("tn4", ("q", "z5")),
    ("tensor(mn2,tn2)", ("q",)),
    ("tn5", ("q", "z5")),
    ("mn4", ("q", "z5")),
    ("poly(tn3,2)", ("q", "z5")),
    ("tn6", ("q", "z5")),
]


def _nonzero(rng, ring):
    v = rng.choice([-3, -2, -1, 1, 2, 3])
    return ring.norm(v)


def _tn_left_family(n: int, ring, rng):
    """g, h send e_11 into the first row and kill the rest; f = g + h."""
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    d = len(pos)
    maps = {}
    for name in ("g", "h"):
        mat = ref.zero_map(d)
        for j in range(n):
            mat[pos.index((0, j))][0] = _nonzero(rng, ring)
        maps[name] = mat
    maps["f"] = ref.combine(ring, (1, maps["g"]), (1, maps["h"]))
    return maps


def _poly_lift(mat, degree: int):
    """e_i x^t -> f(e_i) x^t."""
    d = len(mat)
    out = ref.zero_map(d * (degree + 1))
    for t in range(degree + 1):
        for i in range(d):
            for j in range(d):
                out[t * d + i][t * d + j] = mat[i][j]
    return out


def _left_family(spec: str, alg, rng):
    """A nonzero solution of the one-sided identity where one is known."""
    ring = alg.ring
    m = re.fullmatch(r"tn(\d+)", spec) or re.fullmatch(r"poly\(tn(\d+),(\d+)\)", spec)
    if m:
        maps = _tn_left_family(int(m.group(1)), ring, rng)
        if spec.startswith("poly"):
            maps = {k: _poly_lift(v, int(m.group(2))) for k, v in maps.items()}
        return maps
    if alg.is_commutative():
        # (2M + E, M + E, M + E): multiplication plus the Euler derivation.
        mul = ref.right_mul(alg, [_nonzero(rng, ring) for _ in range(alg.dim)])
        e = ref.combine(ring, (_nonzero(rng, ring), ref.euler_derivation(alg)))
        once = ref.combine(ring, (1, mul), (1, e))
        return {"f": ref.combine(ring, (2, mul), (1, e)), "g": once, "h": once}
    zero = ref.zero_map(alg.dim)
    return {"f": zero, "g": zero, "h": zero}


def holding_maps(kind: str, spec: str, alg, rng) -> dict:
    """Maps that satisfy ``kind`` on ``alg``, from the closed-form families."""
    ring = alg.ring
    alpha = [_nonzero(rng, ring) for _ in range(alg.dim)]
    right, left = ref.right_mul(alg, alpha), ref.left_mul(alg, alpha)
    euler = ref.euler_derivation(alg)
    # Inner derivation x -> x alpha - alpha x plus a multiple of the Euler one.
    der = ref.combine(ring, (1, right), (-1, left), (_nonzero(rng, ring), euler))
    if kind in ("derivation", "jordan-derivation"):
        return {"f": der}
    if kind == "left-derivation":
        if alg.is_commutative():
            return {"f": ref.combine(ring, (_nonzero(rng, ring), euler))}
        return {"f": ref.zero_map(alg.dim)}
    if kind == "left-centralizer":
        return {"f": left}
    if kind == "right-centralizer":
        return {"f": right}
    if kind == "gh-derivation":
        lam = _nonzero(rng, ring)
        ident = [[int(i == j) for j in range(alg.dim)] for i in range(alg.dim)]
        once = ref.combine(ring, (1, der), (lam, ident))
        return {"f": ref.combine(ring, (1, der), (2 * lam, ident)), "g": once, "h": once}
    fam = _left_family(spec, alg, rng)
    if kind == "left-gh":
        return fam
    # jordan-left-gh: (2R, R, R) plus a one-sided solution.
    return {
        "f": ref.combine(ring, (2, right), (1, fam["f"])),
        "g": ref.combine(ring, (1, right), (1, fam["g"])),
        "h": ref.combine(ring, (1, right), (1, fam["h"])),
    }


def failing_maps(kind: str, alg, maps: dict, rng) -> dict:
    """``maps`` with one entry changed so that the identity fails."""
    for _ in range(100):
        name = rng.choice(sorted(maps))
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        bad = {k: [row[:] for row in v] for k, v in maps.items()}
        bad[name][i][j] = alg.ring.norm(bad[name][i][j] + _nonzero(rng, alg.ring))
        if ref.evaluate(kind, alg, bad) is not None:
            return bad
    raise RuntimeError(f"no failing perturbation found for {kind}")


def generate(seed: int, out: Path) -> list[dict]:
    rng = random.Random(seed)
    docs_dir = out / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    pairs = 0
    for a_index, (spec, rings) in enumerate(ALGEBRAS):
        for ring_name in rings:
            ring = ref.Ring.from_name(ring_name)
            alg = ref.from_spec(spec, ring)
            inline_doc = alg.to_doc()
            for k_index, kind in enumerate(ref.KINDS):
                if (a_index + k_index) % 2:
                    continue
                good = holding_maps(kind, spec, alg, rng)
                bad = failing_maps(kind, alg, good, rng)
                pairs += 1
                for verdict, maps in enumerate((good, bad)):
                    inline = (pairs + verdict) % 2 == 1
                    if "g" in maps:
                        doc = {n: [[ring.fmt(v) for v in row] for row in maps[n]]
                               for n in ref.MAPS}
                        flag = "--triple"
                    else:
                        doc = {"matrix": [[ring.fmt(v) for v in row] for row in maps["f"]]}
                        flag = "--map"
                    doc["algebra"] = inline_doc if inline else spec
                    path = docs_dir / f"{len(manifest):03d}.json"
                    path.write_text(json.dumps(doc), encoding="utf-8")
                    argv = ["check", "--kind", kind, flag, str(path)]
                    if not inline:
                        argv += ["--ring", ring_name]
                    found = ref.evaluate(kind, alg, maps)
                    manifest.append({
                        "argv": argv,
                        "spec": spec,
                        "ring": ring_name,
                        "dim": alg.dim,
                        "inline": inline,
                        "expected": ref.counterexample_doc(ring, found),
                    })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args(argv)
    manifest = generate(args.seed, Path(args.out))
    holds = sum(m["expected"]["holds"] for m in manifest)
    print(f"wrote {len(manifest)} documents ({holds} hold) to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
