"""Command-line front end: compile, simulate, diagonalize, decide.

All reports are plain structured text with a stable field order, so two
runs with the same configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .basis import SpinBasis, frozen_patterns
from .circuit import (
    ProblemShape,
    ScheduleError,
    SweepSchedule,
    force_reject_gate,
    parse_circuit_text,
    schedule_from_placements,
)
from .hamiltonian import (
    CouplingConstants,
    _capped,
    assemble,
    assemble_orbit,
    assemble_total,
    build_h_comp_bond,
    build_shift_operator,
    check_translation_invariance,
    checked_dim,
    checked_orbit_dim,
    export_triplets,
    orbit_keys,
    standard_parts,
    total_parts,
)
from .oracle import format_expectation_report, simulate_history
from .promise import (
    PromiseParameters,
    auto_constants,
    decide,
    orbit_expectations,
    sector_hamiltonian,
    sector_spectrum,
    separation_experiment,
    verify_lemma_numeric,
)
from .spectral import SpectralError, gap, low_spectrum

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_circuit(path, args) -> SweepSchedule:
    """The schedule in the circuit file at `path`, whose shape line leaves
    --n, --m and --r nothing to set."""
    if (args.n, args.m, args.r) != (None, None, None):
        raise ScheduleError("a circuit file gives the shape: drop --n, --m and --r")
    with open(path) as fh:
        return parse_circuit_text(fh.read())


def _load_schedule(args, cap=None) -> SweepSchedule:
    """The schedule of --circuit or --n; `cap`, when given, checks its shape
    first (for --n, before the schedule is built)."""
    if args.circuit:
        schedule = _read_circuit(args.circuit, args)
        if cap:
            cap(schedule.shape)
        return schedule
    if args.n is None:
        raise ScheduleError("need --circuit or --n to define a schedule")
    shape = ProblemShape(args.n, 1 if args.m is None else args.m, 1 if args.r is None else args.r)
    if cap:
        cap(shape)
    return SweepSchedule(shape)


def _resolve_constants(schedule: SweepSchedule, args) -> CouplingConstants:
    """--j1, --j2 and --alpha, each 'auto' one and w_out from auto_constants."""
    auto = auto_constants(schedule, j1=args.j1)
    j2 = auto.j2 if args.j2 == "auto" else float(args.j2)
    alpha = auto.alpha if args.alpha == "auto" else float(args.alpha)
    return CouplingConstants(args.j1, j2, alpha, auto.w_out)


def cmd_compile(args) -> int:
    if args.command == "export" and not args.out:
        print("error: export needs --out", file=sys.stderr)
        return 1
    schedule = _load_schedule(args)  # a schedule checks its gates and slots when made
    shape = schedule.shape
    if args.parts == "all":
        constants = _resolve_constants(schedule, args)
        op = assemble_total(schedule, constants)
    else:
        checked_dim(shape)
        parts = standard_parts(schedule)
        selected = []
        for name in args.parts.split(","):
            name = name.strip()
            if name not in parts:  # each part is taken out once it is selected
                print(f"error: unknown or repeated part {name!r}", file=sys.stderr)
                return 1
            selected.append((parts.pop(name), 1.0))
        op = assemble(selected, shape, provenance=args.parts)
    print(f"dim {op.dim}")
    print(f"nnz {op.nnz}")
    print(f"hermiticity_residual {_fmt(op.hermiticity_residual())}")
    print(f"translation_residual {_fmt(check_translation_invariance(op, build_shift_operator(shape)))}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(export_triplets(op))
        print(f"wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    schedule = _load_schedule(args, checked_orbit_dim)  # before any history or bond term
    shape = schedule.shape
    witness = "0" * shape.n_qubits if args.witness is None else args.witness
    # The history state lives on the orbit block, which every part keeps closed.
    history = simulate_history(schedule, witness)
    rows = orbit_expectations(history, standard_parts(schedule), orbit_keys(shape))
    sys.stdout.write(format_expectation_report(rows))
    p_rej = history.reject_probability()
    print(f"p_reject {_fmt(p_rej)}")
    print(f"p_reject_over_steps {_fmt(p_rej / (shape.total_steps + 1))}")
    return 0


def cmd_spectrum(args) -> int:
    def cap(shape):  # before any pattern, schedule or bond term
        if args.frozen_scan:  # frozen_patterns lists (R+1)^N clock patterns, |V0| / 2^N
            _capped(SpinBasis(shape).sector_dim >> shape.n_qubits, "frozen-scan clock pattern space")
        if args.orbit_restrict:
            checked_orbit_dim(shape)

    schedule = _load_schedule(args, cap)
    constants = _resolve_constants(schedule, args)
    if args.orbit_restrict:
        sub = assemble_orbit(total_parts(standard_parts(schedule), constants), schedule.shape)
        report = low_spectrum(sub, args.k, constants.lower_bound)
    else:
        report = sector_spectrum(schedule, constants, args.k)
    if args.frozen_scan:  # 2^N bit strings on every frozen pattern, at every head site
        shape = schedule.shape
        print(f"frozen_count {shape.n_sites * len(frozen_patterns(shape)) * 2 ** shape.n_qubits}")
    sys.stdout.write(report.format())
    return 0


def cmd_gapscan(args) -> int:
    """Sweep over step counts with the two-qubit identity ring: the gap of
    its H_comp orbit block (spectral.gap), 2^N copies of the path Laplacian
    on T+1 states, and that gap times (T+1)^2.  Each copy holds one zero
    mode, so a ground cluster of any other size (an excited level within the
    cluster tolerance) is a SpectralError, not a misread gap."""
    try:
        values = [int(v) for v in args.tplus.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 2:
        print(f"error: --tplus needs a comma list of integers >= 2, got {args.tplus!r}",
              file=sys.stderr)
        return 1
    shapes = [ProblemShape(2, 1, t_plus_1 - 1) for t_plus_1 in values]
    for shape in shapes:  # every orbit block, before any schedule or bond term
        checked_orbit_dim(shape)
    print("T gap scaled_gap")
    for t_plus_1, shape in zip(values, shapes):
        total = t_plus_1 - 1
        report = gap(assemble_orbit([(build_h_comp_bond(SweepSchedule(shape)), 1.0)], shape))
        copies = 2 ** shape.n_qubits
        if report.ground_degeneracy != copies:
            raise SpectralError(f"T = {total}: ground cluster of {report.ground_degeneracy} "
                                f"levels, expected {copies}; the gap is within the cluster tolerance")
        print(f"{total} {_fmt(report.gap)} {_fmt(report.gap * t_plus_1 ** 2)}")
    return 0


def cmd_verify(args) -> int:
    if args.mode == "separation":
        if (args.a, args.b) != (None, None):
            raise ScheduleError("--mode separation sets no promise: drop --a and --b")
        if args.desk_pair:  # the identity schedule against force-reject in slot (1, 1), at (2, 1, R)
            if args.circuit or args.circuit_no or args.n not in (None, 2) or args.m not in (None, 1):
                raise ScheduleError("--desk-pair is the (2,1,R) pair from --r: it takes no circuit "
                                    "file, and --n only as 2 and --m only as 1")
            n_cycles = 1 if args.r is None else args.r
            accepting = SweepSchedule(ProblemShape(2, 1, n_cycles))
            rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, n_cycles)
        elif not (args.circuit and args.circuit_no):
            print("error: separation needs --circuit and --circuit-no (or --desk-pair)",
                  file=sys.stderr)
            return 1
        else:
            accepting = _read_circuit(args.circuit, args)
            rejecting = _read_circuit(args.circuit_no, args)
        constants = _resolve_constants(accepting, args)
        report = separation_experiment(accepting, rejecting, constants)
        sys.stdout.write(report.format())
        return 0
    if args.desk_pair or args.circuit_no:
        raise ScheduleError("--mode decide reads one schedule: drop --desk-pair and --circuit-no")
    schedule = _load_schedule(args)
    params = PromiseParameters(0.0 if args.a is None else args.a, 0.5 if args.b is None else args.b)
    constants = _resolve_constants(schedule, args)
    sector = sector_hamiltonian(schedule, constants)
    decision = decide(sector.total, params, constants.lower_bound)
    sector.certify(decision.lambda0, "sector lambda0")
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

    def assembly(p):  # coupling constants of the total
        p.add_argument("--j1", type=float, default=1.0)
        p.add_argument("--j2", default="auto")
        p.add_argument("--alpha", default="auto")

    for name, help_text in (
        ("compile", "assemble and export the ring operator"),
        ("export", "write the sparse triplet file"),
    ):
        p = sub.add_parser(name, help=help_text)
        source(p)
        assembly(p)
        p.add_argument("--parts", default="all", help="comma list of parts or 'all'")
        p.add_argument("--out", help="triplet file to write")
        p.set_defaults(func=cmd_compile)

    p = sub.add_parser("oracle", help="history-state expectations for a witness")
    source(p)
    p.add_argument("--witness", help="bit string of length N")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectrum", help="low-lying spectrum of the total Hamiltonian")
    source(p)
    assembly(p)
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
    p.add_argument("--mode", choices=("decide", "separation"), default="separation")
    p.add_argument("--circuit-no", dest="circuit_no", help="rejecting circuit file")
    p.add_argument("--desk-pair", action="store_true", dest="desk_pair",
                   help="use the built-in (2,1,R) accepting/rejecting pair")
    p.add_argument("--a", type=float, help="promise threshold a, --mode decide only (default 0)")
    p.add_argument("--b", type=float, help="promise threshold b, --mode decide only (default 0.5)")
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
    except (ValueError, OSError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the failed allocation
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
