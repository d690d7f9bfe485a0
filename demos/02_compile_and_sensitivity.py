"""Compile the network into a parametric Markov chain and read off the
closed-form sensitivity function of the constrained query.

The chain walks the variables level by level; paths that contradict the
evidence restart at the initial state, which turns the conditional query
into plain reachability.  Eliminating states yields the query as a ratio of
two polynomials in the tunable parameters.
"""

from pathlib import Path

from bntune import (
    compile_chain,
    compile_tailored,
    parse_constraint,
    parse_network,
    parse_param_spec,
    reach_prob,
    sensitivity_function,
    to_dot,
)

FILES = Path(__file__).parent / "files"
CONSTRAINT = "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009"


def main() -> None:
    net = parse_network((FILES / "diagnostic.net").read_text())
    pbn = parse_param_spec((FILES / "diagnostic.params").read_text(), net)
    constraint = parse_constraint(CONSTRAINT, pbn)

    plain = compile_chain(pbn)
    chain, spec = compile_tailored(pbn, constraint)
    print(f"plain chain: {plain.n_states} states, {plain.transition_count} transitions")
    print(f"evidence-tailored chain: {chain.n_states} states, target states {sorted(spec.targets)}")

    origin = pbn.origin_instantiation()
    print(f"reach probability at the original values: {reach_prob(chain, origin, spec.targets):.6f}")

    form = sensitivity_function(chain, tuple(sorted(spec.targets)))
    print(f"sensitivity function: ({form.numerator}) / ({form.denominator})")
    for p, q in ((0.72, 0.95), (0.92075, 0.97475)):
        print(f"  at p={p}, q={q}: {form.evaluate({'p': p, 'q': q}):.6f}")

    dot_path = Path(__file__).parent / "diagnostic-chain.dot"
    dot_path.write_text(to_dot(chain, tuple(sorted(spec.targets))))
    print(f"GraphViz rendering written to {dot_path.name} (render with: dot -Tsvg)")


if __name__ == "__main__":
    main()
