"""Iterative error correction — the paper's §5 future-work direction, working.

For each simulated model: ask for a Wilkins configuration, validate it
against the real schema, feed the diagnostics (plus a known-good 2-node
example) back, and repeat until the config validates.  Prints the
hallucinated fields caught at each iteration and the final configuration,
which parses against the Wilkins schema and validates.

Usage:  python examples/llm_repair_loop.py
"""

from __future__ import annotations

from repro.core.repair import RepairLoop
from repro.data import MODELS
from repro.data.prompts import get_template
from repro.workflows.wilkins import parse_wilkins_yaml, validate_config


def main() -> None:
    request = get_template("configuration", "original").body.format(system="Wilkins")

    final_artifact = None
    for model in MODELS:
        print(f"=== sim/{model} ===")
        loop = RepairLoop(f"sim/{model}", "wilkins", max_iterations=4)
        outcome = loop.run(request)
        for attempt in outcome.attempts:
            flagged = sorted(
                {d.symbol for d in attempt.report.hallucinations() if d.symbol}
            )
            status = "VALID" if attempt.report.ok else f"invalid: {flagged}"
            print(f"  iteration {attempt.iteration}: {status}")
        print(f"  converged: {outcome.converged} "
              f"after {outcome.iterations} iteration(s)\n")
        if outcome.converged:
            final_artifact = outcome.final_artifact

    assert final_artifact is not None, "no model converged"
    print("=== final repaired configuration (last converged model) ===")
    print(final_artifact)

    # the repaired config parses into the schema and passes the validator
    config = parse_wilkins_yaml(final_artifact)
    assert validate_config(final_artifact).ok
    tasks = ", ".join(f"{t.func} ({t.nprocs} procs)" for t in config.tasks)
    print(f"\nrepaired workflow parses and validates: {tasks}")


if __name__ == "__main__":
    main()
