"""Tune the two test sensitivities until the residual risk is acceptable.

The search expands a candidate box around the original values, doubling its
radius from d0/32 up to d0, partitions it into accepting and rejecting
sub-boxes, and projects the original values onto the accepting ones; the
first radius that yields an accepting box determines the answer.  The result
comes with a verified instantiation and its distance from the original
values.
"""

from fractions import Fraction
from pathlib import Path

from bntune import Hyper, infer, instantiate, parse_constraint, parse_network, parse_param_spec, tune

FILES = Path(__file__).parent / "files"
CONSTRAINT = "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009"


def main() -> None:
    net = parse_network((FILES / "diagnostic.net").read_text())
    pbn = parse_param_spec((FILES / "diagnostic.params").read_text(), net)
    constraint = parse_constraint(CONSTRAINT, pbn)

    result = tune(pbn, constraint)
    print(f"status: {result.status.value}")
    for name, value in result.instantiation.items():
        origin = float(pbn.origin_instantiation()[name])
        print(f"  {name}: {origin} -> {float(value):.9f}")
    print(f"euclidean distance {result.distance:.6f} (squared {result.distance_squared:.6f})")
    print(f"resulting probability {result.probability:.6f} <= 0.009")

    check = infer(instantiate(pbn, result.instantiation), constraint.hypothesis, constraint.evidence)
    print(f"independent exact recheck: {check:.6f}")

    print("\niterations (radius, verifications, accepting/rejecting/unknown boxes):")
    for it in result.iterations:
        print(
            f"  radius {float(it.epsilon):.4f}: {it.verifications} verifications, "
            f"{it.accepting}/{it.rejecting}/{it.unknown}"
        )

    # A quicker, coarser run: a lower coverage factor.
    quick = tune(pbn, constraint, hyper=Hyper(eta=Fraction(9, 10)))
    print(
        f"\ncoarser search (coverage factor 0.9): distance {quick.distance:.6f}, "
        f"probability {quick.probability:.6f}"
    )


if __name__ == "__main__":
    main()
