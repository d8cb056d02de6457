"""Reproduce the paper's evaluation end-to-end (reduced scale).

Runs the full two-phase experiment — trace the five benchmarks, discover
every monitor session, simulate counting variables, apply the analytical
models — and prints Table 4 plus the shape checks.  Uses smoke scale so
it finishes in well under a minute; pass ``--full`` for the scale behind
the committed benchmark reports.

The run executes with the observability layer on (``repro.observe``),
and finishes by writing a :class:`~repro.observe.manifest.RunManifest`
JSON — the per-stage timing/cache audit that ``docs/OBSERVABILITY.md``
walks through field by field — and printing it the way
``repro-experiments show`` does.

Run:  python examples/reproduce_paper.py [--full] [--manifest FILE]
"""

import sys
import time

from repro import observe
from repro.experiments import (
    ExperimentConfig,
    load_experiment_data,
    render_table1_report,
    render_table4_report,
)


def main() -> None:
    scale = "full" if "--full" in sys.argv else "smoke"
    manifest_path = "reproduce_paper.manifest.json"
    if "--manifest" in sys.argv:
        manifest_path = sys.argv[sys.argv.index("--manifest") + 1]

    observe.enable()
    config = ExperimentConfig(scale=scale)
    print(f"running the two-phase experiment at {scale} scale...")
    start = time.time()
    with observe.span("pipeline"):
        data = load_experiment_data(config, progress=lambda m: print(f"  .. {m}"))
    print(f"pipeline finished in {time.time() - start:.1f}s\n")

    with observe.span("model"):
        print(render_table1_report(data))
        print()
        print(render_table4_report(data))
    if scale == "smoke":
        print(
            "\n(smoke scale: tiny runs can perturb trim-window statistics;"
            "\n all seven shape checks pass at --full, as asserted by"
            "\n `pytest benchmarks/ --benchmark-only`.)"
        )

    manifest = observe.RunManifest.from_registry(
        target="reproduce_paper",
        config={"scale": scale, "programs": list(config.programs)},
    )
    manifest.write(manifest_path)
    print(f"\n{observe.render_manifest(manifest)}")
    print(f"\n[run manifest written to {manifest_path}]")


if __name__ == "__main__":
    main()
