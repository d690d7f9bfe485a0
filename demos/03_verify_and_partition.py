"""Soundly verify parameter boxes and partition the parameter space.

A box of parameter values is checked by relaxing the chain (each state picks
its own corner of the box, independently of the other states) and
substituting those corners, giving an MDP whose min/max reachability
brackets the true probability everywhere in the box.  Splitting inconclusive boxes classifies the space up to a chosen
coverage factor.
"""

from fractions import Fraction
from pathlib import Path

from bntune import (
    Region,
    RegionVerifier,
    boxes_csv,
    compile_tailored,
    parse_constraint,
    parse_network,
    parse_param_spec,
    partition,
)

FILES = Path(__file__).parent / "files"
CONSTRAINT = "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009"


def main() -> None:
    net = parse_network((FILES / "diagnostic.net").read_text())
    pbn = parse_param_spec((FILES / "diagnostic.params").read_text(), net)
    constraint = parse_constraint(CONSTRAINT, pbn)
    chain, spec = compile_tailored(pbn, constraint)
    verifier = RegionVerifier(chain, spec)

    for bounds in (
        {"p": ("0.95", "0.99"), "q": ("0.985", "0.999")},
        {"p": ("0.6", "0.8"), "q": ("0.9", "0.96")},
        {"p": ("0.7", "0.95"), "q": ("0.95", "0.99")},
    ):
        box = Region.from_bounds(bounds)
        verdict = verifier.verify(box)
        low, high = verifier.bounds(box)
        box_text = " x ".join(
            f"{name} in [{float(lo)}, {float(hi)}]" for name, (lo, hi) in zip(box.params, box.intervals)
        )
        print(f"{box_text}: {verdict.value} (probability within [{low:.6f}, {high:.6f}])")

    print("\npartitioning the declared space at coverage factor 0.95 ...")
    result = partition(chain, spec, pbn.space(), Fraction(95, 100))
    accepting, rejecting, unknown = result.counts
    print(
        f"coverage {float(result.coverage):.4f} with {result.verifications} verifications: "
        f"{accepting} accepting, {rejecting} rejecting, {unknown} unknown boxes"
    )

    csv_path = Path(__file__).parent / "diagnostic-boxes.csv"
    csv_path.write_text(boxes_csv(result))
    print(f"box list written to {csv_path.name}")


if __name__ == "__main__":
    main()
