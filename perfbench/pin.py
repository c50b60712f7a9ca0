"""Regenerate perfbench/pins.json: the workload pools and their pinned answers.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/pin.py

Every check in every pool gets its expected `lhs`, `rhs` and `equal`,
computed here from the package's enumerators and brute-force oracles rather
than through the claim code the benchmark times:

* tableau counts by materialising `enumerate_*`;
* the balanced expectation by its closed form 2rc/(r+c), checked against a
  brute-force walk of the pair ensemble;
* toggle and corner sums through the two corner bijections: every cell's
  toggle-in and toggle-out counts equal the number of barely set-valued
  tableaux doubled at that cell;
* word polynomials by the dynamic program, checked against the brute-force
  word walk where that is affordable and always against the reduced-word
  count as the leading coefficient.

The benchmark itself never imports this file; it only reads pins.json.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from bssyt import (
    IntPolynomial,
    Partition,
    all_subshapes,
    binomial,
    dominant_from_partition,
    enumerate_bssyt,
    enumerate_rpp,
    enumerate_ssyt,
    induced_subshape,
    is_balanced,
    length,
    rect_staircase,
)
from bssyt.shapes import jaggedness as shape_jaggedness
from bssyt.hecke import (
    count_reduced_words,
    fk_polynomial,
    fk_polynomial_bruteforce,
    longest_permutation,
)

OUT = Path(__file__).resolve().parent / "pins.json"

# Desk-sweep pool: every claim over every nonempty subshape of a 3x4 or 4x3
# box at k <= 2, kept only where the barely set-valued family is small, so
# each check costs a few milliseconds and per-call overhead dominates.  Hecke
# claims run only on shapes whose dominant code has n <= 4.  Every check of
# the pool runs in every pass.
DESK_BOXES = ((4, 4, 4), (3, 3, 3, 3))
DESK_KS = (1, 2)
DESK_MAX_BSSYT = 150
DESK_MAX_HECKE_N = 4
DESK_FK14_N = (2, 3, 4)

# Large and Hecke workloads: one check per slot; a slot lists alternatives of
# near-equal cost (conjugate shapes with equal counts, or k values that only
# touch the cheap counting part), and every pass draws one of them afresh.
# Beyond the checks the workloads are built around, a few slots sit near each
# batch's median cost, so that the median check time is read from several
# checks rather than from one.
LARGE_SLOTS = (
    (("verify", "theorem31", "--shape", "4,4,4,4", "--k", "3"),),
    (("verify", "doublesums", "--shape", "4,4,4,4", "--k", "3"),),
    (("verify", "togglesym", "--shape", "4,4,4,4", "--k", "3"),),
    (("verify", "theorem21", "--shape", "4,4,4,4", "--k", "3"),),
    (
        ("verify", "theorem22", "--shape", "6,6,3,3", "--k", "3"),
        ("verify", "theorem22", "--shape", "4,4,4,2,2,2", "--k", "3"),
    ),
    (
        ("verify", "doublesums", "--shape", "6,4,2", "--k", "3"),
        ("verify", "doublesums", "--shape", "3,3,2,2,1,1", "--k", "3"),
    ),
    (
        ("verify", "theorem31", "--shape", "4,4,4", "--k", "4"),
        ("verify", "theorem31", "--shape", "3,3,3,3", "--k", "4"),
    ),
    (
        ("verify", "roundtrip", "--shape", "4,4,4", "--k", "3"),
        ("verify", "roundtrip", "--shape", "3,3,3,3", "--k", "3"),
    ),
    (
        ("verify", "conjecture11", "--a", "2", "--b", "1", "--d", "4", "--k", "3"),
        ("verify", "conjecture11", "--a", "2", "--b", "2", "--d", "3", "--k", "3"),
    ),
    (
        ("verify", "roundtrip", "--shape", "4,4,2,1", "--k", "3"),
        ("verify", "roundtrip", "--shape", "4,3,2,2", "--k", "3"),
    ),
)
HECKE_SLOTS = (
    (("verify", "fk14", "--n", "5"),),
    (("verify", "fk36", "--shape", "2,2,2,2"),),
    (("verify", "fk37", "--shape", "3,3,3", "--k", "2"),),
    (("verify", "fk37", "--shape", "3,3,2,2", "--k", "2"),),
    (("verify", "fk37", "--shape", "4,4,2,1", "--k", "2"),),
    (
        ("verify", "fk36", "--shape", "4,4,2,1"),
        ("verify", "fk36", "--shape", "4,3,2,2"),
    ),
    (("verify", "fk36", "--shape", "3,3,3"),),
    (
        ("verify", "fk37", "--shape", "3,3,2,2,1,1", "--k", "2"),
        ("verify", "fk37", "--shape", "3,3,2,2,1,1", "--k", "1"),
    ),
    (
        ("verify", "fk37", "--shape", "2,2,2,2", "--k", "2"),
        ("verify", "fk37", "--shape", "4,4", "--k", "2"),
    ),
)

# The brute-force word walk visits (n-1)**length sequences; use it as the
# oracle only up to this many.
BRUTEFORCE_WORDS = 200_000


def encode(value):
    """The report encoding of an exact value: ints stay ints, other
    fractions become "p/q", polynomials their text form."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, IntPolynomial):
        return str(value)
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


def verify_pin(lhs, rhs):
    return {"lhs": encode(lhs), "rhs": encode(rhs), "equal": True}


class Oracle:
    """Tableau counts and ensemble sums by plain enumeration, memoised."""

    def __init__(self):
        self._bssyt = {}

    def ssyt(self, lam, k):
        return sum(1 for _ in enumerate_ssyt(lam, k))

    def bssyt_by_cell(self, lam, k):
        """Number of barely set-valued tableaux doubled at each cell."""
        key = (lam.parts, k)
        if key not in self._bssyt:
            by_cell = {f"{c.row},{c.col}": 0 for c in lam.cells()}
            for T in enumerate_bssyt(lam, k):
                for r, row in enumerate(T.rows, start=1):
                    for c, cell in enumerate(row, start=1):
                        if len(cell) == 2:
                            by_cell[f"{r},{c}"] += 1
            self._bssyt[key] = by_cell
        return self._bssyt[key]

    def bssyt(self, lam, k):
        return sum(self.bssyt_by_cell(lam, k).values())

    def expected_jaggedness(self, lam, k):
        total = pairs = 0
        for P in enumerate_rpp(lam, k):
            for i in range(1, k + 1):
                total += shape_jaggedness(induced_subshape(P, i), lam)
                pairs += 1
        return Fraction(total, pairs)


def word_polynomial(w, ell):
    """The dynamic program's polynomial, checked against the word walk when
    that is affordable and against the reduced-word count at ell = length."""
    poly = fk_polynomial(w, ell)
    if (len(w) - 1) ** ell <= BRUTEFORCE_WORDS:
        if poly != fk_polynomial_bruteforce(w, ell):
            raise AssertionError(f"word DP disagrees with brute force on {w} at {ell}")
    if ell == length(w) and poly.leading_coefficient() != count_reduced_words(w):
        raise AssertionError(f"leading coefficient of {w} is not its reduced-word count")
    return poly


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def pin(argv, oracle):
    """Expected answer of one check, keyed the way the report carries it."""
    claim = argv[1]
    if claim == "fk14":
        n = int(_flag(argv, "--n"))
        ell0 = n * (n - 1) // 2
        doubled, denominator = IntPolynomial.one(), 1
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                doubled = doubled * IntPolynomial.linear(i + j - 1, 2)
                denominator *= i + j - 1
        rhs = doubled * math.factorial(ell0)
        if word_polynomial(longest_permutation(n), ell0) * denominator != rhs:
            raise AssertionError(f"fk14 product formula fails at n={n}")
        return verify_pin(rhs, rhs)
    if claim == "conjecture11":
        a, b, d, k = (int(_flag(argv, f"--{x}")) for x in "abdk")
        lam = rect_staircase(a, b, d)
        return verify_pin(
            oracle.bssyt(lam, k), Fraction(k * a * b * (d - 1) * oracle.ssyt(lam, k), a + b)
        )

    lam = Partition.from_text(_flag(argv, "--shape"))
    r, c = lam.rows, lam.cols
    if claim == "fk36":
        k_values = [int(_flag(argv, "--k"))] if "--k" in argv else [1, 2, 3]
        w = dominant_from_partition(lam)
        ell = length(w)
        clear = ell * (r + c)
        lhs = word_polynomial(w, ell + 1) * clear
        rhs = word_polynomial(w, ell) * IntPolynomial.linear(clear, 2 * r * c) * binomial(ell + 1, 2)
        if lhs != rhs or any(lhs.evaluate(x) != rhs.evaluate(x) for x in k_values):
            raise AssertionError(f"fk36 fails on {lam}")
        return verify_pin(lhs, rhs)

    k = int(_flag(argv, "--k"))
    if claim == "fk37":
        w = dominant_from_partition(lam)
        ell = length(w)
        ssyt, bssyt = oracle.ssyt(lam, k), oracle.bssyt(lam, k)
        lhs = word_polynomial(w, ell + 1).evaluate(k) * ssyt
        rhs = word_polynomial(w, ell).evaluate(k) * (binomial(ell + 1, 2) * ssyt + (ell + 1) * bssyt)
        return verify_pin(lhs, rhs)
    if claim == "theorem31":
        return verify_pin(oracle.bssyt(lam, k), Fraction(k * r * c * oracle.ssyt(lam, k), r + c))
    if claim in ("theorem21", "theorem22"):
        closed = Fraction(2 * r * c, r + c)
        if oracle.expected_jaggedness(lam, k) != closed:
            raise AssertionError(f"expected jaggedness of {lam} at k={k} is not 2rc/(r+c)")
        return verify_pin(closed, closed)
    if claim == "doublesums":
        bssyt = oracle.bssyt(lam, k)
        return verify_pin([bssyt, bssyt], [bssyt, bssyt])
    if claim == "togglesym":
        by_cell = oracle.bssyt_by_cell(lam, k)
        return verify_pin(by_cell, by_cell)
    if claim == "roundtrip":
        bssyt = oracle.bssyt(lam, k)
        return verify_pin([bssyt, bssyt], [bssyt, bssyt])
    raise ValueError(f"no pin rule for {argv}")


def desk_slots(oracle):
    """Desk-sweep slots: every claim over every qualifying subshape and k,
    each a slot of one check, in a fixed order (the seed shuffles it)."""
    shapes = {}
    for box in DESK_BOXES:
        for mu in all_subshapes(Partition(box)):
            if mu.parts:
                shapes[mu.parts] = mu
    checks = []
    for parts in sorted(shapes):
        mu = shapes[parts]
        text = mu.to_text()
        small_code = len(dominant_from_partition(mu)) <= DESK_MAX_HECKE_N
        for k in DESK_KS:
            args = ("--shape", text, "--k", str(k))
            claims = []
            if small_code:
                claims += ["fk37", "fk36"] if is_balanced(mu) else ["fk37"]
            if oracle.bssyt(mu, k) <= DESK_MAX_BSSYT:
                claims += ["doublesums", "togglesym", "roundtrip"]
                if is_balanced(mu):
                    claims += ["theorem31", "theorem21", "theorem22"]
            checks += [("verify", claim) + args for claim in claims]
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for d in (2, 3):
                for k in DESK_KS:
                    if oracle.bssyt(rect_staircase(a, b, d), k) <= DESK_MAX_BSSYT:
                        checks.append((
                            "verify", "conjecture11", "--a", str(a), "--b", str(b),
                            "--d", str(d), "--k", str(k),
                        ))
    checks += [("verify", "fk14", "--n", str(n)) for n in DESK_FK14_N]
    return [(argv,) for argv in checks]


def pinned_slots(slots, oracle):
    """Each slot becomes a list of pinned alternatives; a pass draws one."""
    return [[{"argv": list(argv), "expect": pin(list(argv), oracle)} for argv in slot] for slot in slots]


def main():
    oracle = Oracle()
    workloads = {
        "desk-sweep": desk_slots(oracle),
        "large-shapes": LARGE_SLOTS,
        "hecke-words": HECKE_SLOTS,
    }
    doc = {}
    for name, slots in workloads.items():
        doc[name] = pinned_slots(slots, oracle)
        print(f"{name}: {len(slots)} slots, "
              f"{sum(len(slot) for slot in slots)} pinned checks", file=sys.stderr)
    OUT.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
