"""Quickstart: compile a small program with OnePerc and read the metrics.

Run:  python examples/quickstart.py
"""

from repro.circuits import qaoa
from repro.ir import lower_ir
from repro.pipeline import Pipeline, PipelineSettings, baseline_passes


def main() -> None:
    # A 4-qubit QAOA maxcut instance (half of all possible edges, seeded).
    circuit = qaoa(num_qubits=4, seed=1)
    print(circuit)
    print()

    # The practical hardware of the paper: 4-qubit star resource states and
    # a 75% fusion success rate.  RSL and virtual hardware sizes default to
    # the paper's Table 1 scaling for the qubit count.
    compiler = Pipeline(
        PipelineSettings(
            fusion_success_rate=0.75,
            resource_state_size=4,
        ),
        seed=7,
    )
    result = compiler.compile(circuit)

    print(f"#RSL consumed:        {result.rsl_count}")
    print(f"#fusions attempted:   {result.fusion_count}")
    print(f"logical layers:       {result.logical_layers}")
    print(f"PL ratio (RSL/layer): {result.pl_ratio:.2f}")
    print(f"offline compile time: {result.offline_seconds*1000:.1f} ms")
    print(f"online time per RSL:  {result.online_seconds_per_rsl*1000:.2f} ms")
    print()

    # Lower the offline mapping's FlexLattice IR to the intermediate-level
    # instruction stream a hardware controller would consume.
    instructions = lower_ir(result.mapping.ir)
    print("First 12 intermediate-level instructions:")
    for instruction in instructions[:12]:
        print(f"  {instruction}")
    print(f"  ... ({len(instructions)} total)")

    # Compare with the OneQ baseline under repeat-until-success.
    baseline = Pipeline(
        compiler.settings, passes=baseline_passes(), seed=compiler.seed
    ).compile(circuit)
    cap = "(hit the cap)" if baseline.capped else ""
    print()
    print(f"OneQ baseline #RSL:   {baseline.rsl_count} {cap}")
    print(f"OnePerc advantage:    {baseline.rsl_count / result.rsl_count:.1f}x fewer RSLs")


if __name__ == "__main__":
    main()
