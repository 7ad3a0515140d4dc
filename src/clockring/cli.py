"""Command-line front end: compile, simulate, diagonalize, decide.

All reports are plain structured text with a stable field order, so two
runs with the same configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import scipy.sparse as sp

from .basis import SpinBasis, orbit_label_walk
from .circuit import (
    ProblemShape,
    ScheduleError,
    SweepSchedule,
    force_reject_gate,
    parse_circuit_text,
    schedule_from_placements,
)
from .hamiltonian import (
    DIM_CAP,
    BuildError,
    CouplingConstants,
    assemble,
    assemble_sector,
    assemble_total,
    build_h_comp_bond,
    build_shift_operator,
    check_translation_invariance,
    checked_dim,
    export_triplets,
    standard_parts,
    total_parts,
)
from .oracle import (
    expectations,
    format_expectation_report,
    reject_probability,
    simulate_history,
)
from .promise import (
    PromiseParameters,
    auto_constants,
    decide,
    separation_experiment,
    verify_lemma_numeric,
)
from .spectral import SolverOptions, SpectralError, frozen_config_indices, low_spectrum

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_schedule(args) -> SweepSchedule:
    if args.circuit:
        with open(args.circuit) as fh:
            return parse_circuit_text(fh.read())
    if args.n is None:
        raise ScheduleError("need --circuit or --n to define a schedule")
    shape = ProblemShape(args.n, args.m or 1, args.r or 1)
    return SweepSchedule(shape.require_valid())


def _resolve_constants(schedule: SweepSchedule, args) -> CouplingConstants:
    if args.alpha == "auto" or args.j2 == "auto":
        auto = auto_constants(schedule, j1=args.j1)
        j2 = auto.j2 if args.j2 == "auto" else float(args.j2)
        alpha = auto.alpha if args.alpha == "auto" else float(args.alpha)
        return CouplingConstants(args.j1, j2, alpha, auto.w_out)
    return CouplingConstants.with_default_output_weight(
        schedule.shape, args.j1, float(args.j2), float(args.alpha)
    )


def _solver_options(args) -> SolverOptions:
    return SolverOptions(dense_threshold=args.dense_threshold, seed=args.seed)


def cmd_compile(args) -> int:
    schedule = _load_schedule(args)
    diags = schedule.validate()
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        return 1
    shape = schedule.shape
    if args.parts == "all":
        constants = _resolve_constants(schedule, args)
        op = assemble_total(schedule, constants, dim_cap=args.dim_cap)
    else:
        checked_dim(shape, args.dim_cap)
        parts = standard_parts(schedule)
        selected = []
        for name in args.parts.split(","):
            name = name.strip()
            if name not in parts:
                print(f"error: unknown part {name!r}", file=sys.stderr)
                return 1
            selected.append((parts[name], 1.0))
        op = assemble(selected, shape, provenance=args.parts, dim_cap=args.dim_cap)
    shift = build_shift_operator(shape)
    print(f"dim {op.dim}")
    print(f"nnz {op.nnz}")
    print(f"hermiticity_residual {_fmt(op.hermiticity_residual())}")
    print(f"translation_residual {_fmt(check_translation_invariance(op, shift))}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(export_triplets(op))
        print(f"wrote {args.out}")
    return 0


def cmd_export(args) -> int:
    if not args.out:
        print("error: export needs --out", file=sys.stderr)
        return 1
    return cmd_compile(args)


def cmd_oracle(args) -> int:
    schedule = _load_schedule(args)
    shape = schedule.shape
    witness = args.witness
    if witness is None:
        witness = "0" * shape.n_qubits
    basis = SpinBasis(shape)
    eta = simulate_history(schedule, witness, head_site=0).sector_vector(basis)
    sector = np.arange(basis.sector_dim)  # the history state lives in V0
    parts = {
        name: assemble_sector([(term, 1.0)], shape, sector)
        for name, term in standard_parts(schedule).items()
    }
    rows = expectations(eta, parts)
    sys.stdout.write(format_expectation_report(rows))
    p_rej = reject_probability(schedule, witness)
    steps = shape.total_steps + 1
    print(f"p_reject {_fmt(p_rej)}")
    print(f"p_reject_over_steps {_fmt(p_rej / steps)}")
    return 0


def _orbit_block(schedule: SweepSchedule, weighted_terms) -> sp.csr_matrix:
    """The legal-orbit block at head site 0, in orbit_block_indices order,
    built from the (T+1) 2^N orbit configurations alone."""
    shape = schedule.shape
    keys = SpinBasis(shape).sector_keys(orbit_label_walk(shape))
    return assemble_sector(weighted_terms, shape, keys)


def cmd_spectrum(args) -> int:
    schedule = _load_schedule(args)
    constants = _resolve_constants(schedule, args)
    options = _solver_options(args)
    if args.orbit_restrict:
        sub = _orbit_block(schedule, total_parts(standard_parts(schedule), constants))
        report = low_spectrum(sub, min(args.k, sub.shape[0]), options)
    else:
        op = assemble_total(schedule, constants, dim_cap=args.dim_cap)
        report = low_spectrum(op, args.k, options)
    if args.frozen_scan:
        frozen = frozen_config_indices(schedule.shape)
        print(f"frozen_count {len(frozen)}")
    sys.stdout.write(report.format())
    return 0


def cmd_gapscan(args) -> int:
    """Sweep over step counts with the two-qubit ring in orbit-restricted mode."""
    print("T gap scaled_gap")
    for t_plus_1 in [int(v) for v in args.tplus.split(",")]:
        total = t_plus_1 - 1
        shape = ProblemShape(2, 1, total).require_valid()
        schedule = SweepSchedule(shape)
        block = _orbit_block(schedule, [(build_h_comp_bond(schedule), 1.0)])
        values = np.linalg.eigvalsh(block.toarray())
        distinct = values[values > values[0] + 1e-10]
        gap_val = float(distinct[0] - values[0])
        print(f"{total} {_fmt(gap_val)} {_fmt(gap_val * t_plus_1 ** 2)}")
    return 0


def cmd_verify(args) -> int:
    options = _solver_options(args)
    if args.mode == "separation":
        if args.desk_pair:
            shape = ProblemShape(2, 1, 1)
            accepting = SweepSchedule(shape)
            rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, 1)
        else:
            if not (args.circuit and args.circuit_no):
                print(
                    "error: separation needs --circuit and --circuit-no (or --desk-pair)",
                    file=sys.stderr,
                )
                return 1
            with open(args.circuit) as fh:
                accepting = parse_circuit_text(fh.read())
            with open(args.circuit_no) as fh:
                rejecting = parse_circuit_text(fh.read())
        constants = _resolve_constants(accepting, args)
        report = separation_experiment(accepting, rejecting, constants, options)
        sys.stdout.write(report.format())
        return 0
    schedule = _load_schedule(args)
    constants = _resolve_constants(schedule, args)
    op = assemble_total(schedule, constants, dim_cap=args.dim_cap)
    params = PromiseParameters(args.a, args.b)
    decision = decide(op, params, options)
    sys.stdout.write(decision.format(params))
    return 0


def cmd_lemma(args) -> int:
    report = verify_lemma_numeric(seed=args.seed, trials=args.trials, dim=args.dim)
    sys.stdout.write(report.format())
    return 0 if report.violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockring",
        description="compile sweep circuits to ring Hamiltonians and certify their spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def source(p):
        p.add_argument("--circuit", help="circuit text file")
        p.add_argument("--n", type=int, help="qubit count when no circuit file is given")
        p.add_argument("--m", type=int, help="witness length (default 1)")
        p.add_argument("--r", type=int, help="cycle count (default 1)")

    def assembly(p):  # coupling constants and the full-space cap of the total
        p.add_argument("--j1", type=float, default=1.0)
        p.add_argument("--j2", default="auto")
        p.add_argument("--alpha", default="auto")
        p.add_argument("--dim-cap", type=int, default=DIM_CAP, dest="dim_cap")

    def solver(p):
        p.add_argument("--dense-threshold", type=int, default=4096, dest="dense_threshold",
                       help="largest connected block of the operator solved densely; "
                            "an operator with a larger block is solved by Lanczos")
        p.add_argument("--seed", type=int, default=7)

    for name, help_text, func in (
        ("compile", "assemble and export the ring operator", cmd_compile),
        ("export", "write the sparse triplet file", cmd_export),
    ):
        p = sub.add_parser(name, help=help_text)
        source(p)
        assembly(p)
        p.add_argument("--parts", default="all", help="comma list of parts or 'all'")
        p.add_argument("--out", help="triplet file to write")
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="history-state expectations for a witness")
    source(p)
    p.add_argument("--witness", help="bit string of length N")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectrum", help="low-lying spectrum of the total Hamiltonian")
    source(p)
    assembly(p)
    solver(p)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--orbit-restrict", action="store_true", dest="orbit_restrict")
    p.add_argument("--frozen-scan", action="store_true", dest="frozen_scan")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gapscan", help="orbit-restricted gap against step count")
    p.add_argument("--tplus", default="3,5,9,17", help="comma list of T+1 values")
    p.set_defaults(func=cmd_gapscan)

    p = sub.add_parser("verify", help="promise decision or yes/no separation")
    source(p)
    assembly(p)
    solver(p)
    p.add_argument("--mode", choices=("decide", "separation"), default="separation")
    p.add_argument("--circuit-no", dest="circuit_no", help="rejecting circuit file")
    p.add_argument("--desk-pair", action="store_true", dest="desk_pair",
                   help="use the built-in N=2 accepting/rejecting pair")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemma", help="randomized projection-lemma check")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, default=8)
    p.set_defaults(func=cmd_lemma)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScheduleError, BuildError, ValueError, OSError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
