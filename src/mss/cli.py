"""Command-line entry point wiring every module together.

Subcommands: run, scan, gate-check, magic-eval, certify, experiment,
dump-stabilizers.  All angles are radians unless --degrees is given.  Output
is JSON, CSV, or a human summary (--format pretty); JSON and CSV carry full
double precision, pretty mode rounds to 6 significant digits.  Sampling
commands require an explicit seed; nothing is ever seeded from the clock.

A ``--config`` file's ``key = value`` entries that name flags of the subcommand
are parsed as flags placed before the command line's own, which win.

Exit codes: 0 success, 2 usage error (bad flags or domain preconditions),
1 internal invariant violation, with the violated invariant named on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import magic, protocol, steering, tomo
from .qcore import bloch, dm_from_bloch, fidelity, ket, maximally_mixed, phase_plus, require_unitary
from .stabilizer import enumerate_stabilizer_states
from .wigner import wigner_of

NAMED_STATES = {
    "zero": lambda: ket("0").density(),
    "one": lambda: ket("1").density(),
    "plus": lambda: phase_plus(0.0).density(),
    "minus": lambda: phase_plus(np.pi).density(),
    "plus_i": lambda: phase_plus(np.pi / 2).density(),
    "minus_i": lambda: phase_plus(3 * np.pi / 2).density(),
    "T": lambda: phase_plus(np.pi / 4).density(),
    "mixed": lambda: maximally_mixed(1),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        output = args.handler(args)
        if output.already_written:
            return 0
        _require_finite(output.payload)  # the CSV and pretty renderings carry the same values
        if args.format == "json":
            rendered = _json_text(output.payload)
        elif args.format == "csv":
            rendered = output.csv if output.csv is not None else _flatten_csv(output.payload)
        else:
            rendered = output.pretty if output.pretty is not None else _flatten_pretty(output.payload)
    except ValueError as exc:
        print(f"mss: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"mss: internal invariant violation: {exc}", file=sys.stderr)
        return 1

    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


class CommandOutput:
    """Handler result: the JSON payload plus optional CSV/pretty renderings."""

    def __init__(self, payload, csv=None, pretty=None, already_written=False):
        self.payload = payload
        self.csv = csv
        self.pretty = pretty
        self.already_written = already_written


class _Outcomes(argparse.Action):
    """Stores the value as given; argparse (Python 3.11) hands over [] for a lone "--"."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mss",
        description="Magic secret sharing: protocol runs, magic evaluation, "
                    "steering certification, and the experiment pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty",
                       help="output format (default %(default)s)")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--config", default=None,
                       help="key = value file supplying defaults for optional flags")
        p.add_argument("--degrees", action="store_true",
                       help="interpret all angle inputs as degrees")

    p = sub.add_parser("run", help="run one protocol instance and report security")
    p.add_argument("--phi", type=float, required=True, help="secret angle")
    p.add_argument("--n", type=int, default=3, help="number of parties (3..6)")
    p.add_argument("--outcomes", action=_Outcomes,
                   help="force measurement outcomes, e.g. '++-' (omit to sample)")
    p.add_argument("--seed", type=int, default=None, help="seed for sampled outcomes")
    common(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("scan", help="closed-form vs protocol magic over a phi grid")
    p.add_argument("--grid", required=True, help="start:stop:steps (inclusive)")
    p.add_argument("--n", type=int, default=3)
    common(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("gate-check", help="column-sum security check of an injected gate")
    p.add_argument("--matrix", required=True,
                   help="8 comma-separated reals: re,im for G00,G01,G10,G11")
    p.add_argument("--probes",
                   default="0.39269908169872414,0.7853981633974483,1.0471975511965976,1.3",
                   help="comma-separated probe angles (default pi/8,pi/4,pi/3,1.3)")
    common(p)
    p.set_defaults(handler=cmd_gate_check)

    p = sub.add_parser("magic-eval", help="Wigner distance of a state")
    p.add_argument("--phi", type=float, default=None, help="angle of P(phi)|+>")
    p.add_argument("--bloch", default=None, help="Bloch vector x,y,z")
    p.add_argument("--state", choices=sorted(NAMED_STATES), default=None,
                   help="named single-qubit state")
    common(p)
    p.set_defaults(handler=cmd_magic_eval)

    p = sub.add_parser("certify", help="1SDI steering certification of delivered magic")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--shots", type=int, default=None,
                   help="finite-shot mode with tomographic reconstruction")
    p.add_argument("--seed", type=int, default=None, help="required with --shots")
    p.add_argument("--noise", default="0,0,0", help="p1,p2,readout (finite-shot mode)")
    p.add_argument("--boot", type=int, default=500,
                   help="bootstrap replicas (default %(default)s)")
    common(p)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("experiment", help="shot-sampled pipeline over a list of angles")
    p.add_argument("--phis", required=True, help="comma-separated secret angles")
    p.add_argument("--shots", type=int, default=tomo.DEFAULT_SHOTS,
                   help="shots per circuit (default %(default)s)")
    p.add_argument("--noise", default="0,0,0", help="p1,p2,readout (default %(default)s)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--boot", type=int, default=tomo.DEFAULT_N_BOOT,
                   help="bootstrap replicas (default %(default)s)")
    common(p)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("dump-stabilizers", help="stabilizer vertex table as CSV")
    p.add_argument("--n", type=int, choices=[1, 2], default=1)
    common(p)
    p.set_defaults(handler=cmd_dump_stabilizers)
    return parser


# --- config files and rendering ------------------------------------------

def _with_config(args, argv: list[str]) -> list[str]:
    """``argv`` with each config entry that names a flag of the parsed
    subcommand put right after the subcommand as that flag."""
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {args.config!r}: {exc.strerror or exc}") from None
    flags = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{args.config}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        dest = key.replace("-", "_")
        if dest in ("command", "handler") or not hasattr(args, dest):
            continue  # names no flag of this subcommand
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):  # a switch
            flags.append(flag)
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def _angle(args, value: float) -> float:
    if args.degrees:
        return float(np.radians(value))
    return float(value)


def _floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag}: could not parse float list {text!r}: {exc}") from None
    if not vals or not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{flag} must be nonempty and finite, got {text!r}")
    return vals


def _grid(text: str) -> tuple[float, float, int]:
    usage = ValueError(f"--grid expects start:stop:steps (integer steps ≥ 1), got {text!r}")
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise usage from None
    if steps < 1:
        raise usage
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--grid start and stop must be finite, got non-finite {text!r}")
    return start, stop, steps


def _noise_from(args) -> tomo.NoiseModel:
    vals = _floats(args.noise, "--noise")
    if len(vals) != 3:
        raise ValueError("--noise expects p1,p2,readout")
    return tomo.NoiseModel.symmetric(*vals)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _scalar(v, precision=None):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".6g") if precision else repr(v)
    return str(v)


def _flatten_csv(payload) -> str:
    lines = ["key,value"]
    for path, value in _flatten(payload):
        lines.append(f"{path},{_scalar(value)}")
    return "\n".join(lines) + "\n"


def _flatten_pretty(payload) -> str:
    pairs = [(path, _scalar(value, precision=6)) for path, value in _flatten(payload)]
    width = max(len(p) for p, _ in pairs)
    return "\n".join(f"{p.ljust(width)}  {v}" for p, v in pairs) + "\n"


def _require_finite(payload) -> None:
    """A NaN or infinity anywhere in the payload is an invariant violation."""
    for path, value in _flatten(payload):
        if isinstance(value, float) and not math.isfinite(value):
            raise RuntimeError(f"non-finite number in output ({path} = {value!r})")


def _json_text(payload) -> str:
    """JSON rendering; allow_nan=False backs up :func:`_require_finite`."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _dm_to_json(dm) -> dict:
    return {"re": dm.mat.real.tolist(), "im": dm.mat.imag.tolist()}


# --- subcommand handlers ---------------------------------------------------

def cmd_run(args):
    phi = _angle(args, args.phi)
    transcript = protocol.run_exact(phi, args.n, outcomes=args.outcomes, seed=args.seed)
    report = protocol.security_report(transcript)
    final_c = magic.octahedron_distance(bloch(transcript.final_state))
    payload = {
        "phi": transcript.phi,
        "n_parties": transcript.n_parties,
        "outcomes": "".join(m.outcome for m in transcript.messages),
        "branch_probability": transcript.branch_probability,
        "correction_parity": transcript.correction_parity,
        "messages": [
            {"sender": m.sender, "outcome": m.outcome, "step": m.step}
            for m in transcript.messages
        ],
        "final_c": final_c,
        "c_theory": magic.c_closed_form(transcript.phi),
        "final_fidelity_to_ideal": fidelity(transcript.final_state, phase_plus(transcript.phi)),
        "final_state": _dm_to_json(transcript.final_state),
        "security": {
            str(party): {
                "c_value": entry.c_value,
                "trace_distance_to_i2": entry.trace_distance_to_i2,
            }
            for party, entry in report.items()
        },
    }
    return CommandOutput(payload)


def cmd_scan(args):
    start, stop, steps = _grid(args.grid)
    grid = np.linspace(_angle(args, start), _angle(args, stop), steps)
    rows = protocol.magic_scan(grid, n=args.n)
    payload = {"rows": [
        {"phi": phi, "c_theory": c_th, "c_protocol": c_pr} for phi, c_th, c_pr in rows
    ]}
    csv_lines = ["phi,c_theory,c_protocol"]
    pretty = ["       phi   c_theory  c_protocol"]
    for phi, c_th, c_pr in rows:
        csv_lines.append(f"{phi!r},{c_th!r},{c_pr!r}")
        pretty.append(f"{phi:10.6g} {c_th:10.6g} {c_pr:11.6g}")
    return CommandOutput(payload, csv="\n".join(csv_lines) + "\n",
                         pretty="\n".join(pretty) + "\n")


def cmd_gate_check(args):
    vals = _floats(args.matrix, "--matrix")
    if len(vals) != 8:
        raise ValueError("--matrix expects 8 reals (re,im for G00,G01,G10,G11)")
    g = np.array([[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                  [complex(vals[4], vals[5]), complex(vals[6], vals[7])]])
    probes = [_angle(args, p) for p in _floats(args.probes, "--probes")]
    payload = {
        "matrix": [[vals[0], vals[1]], [vals[2], vals[3]],
                   [vals[4], vals[5]], [vals[6], vals[7]]],
    }
    try:
        require_unitary(g, atol=1e-10)
    except ValueError:
        # Non-unitary input: the protocol runner rejects it, but the
        # column-sum predicate is still well defined and worth reporting.
        s0, s1 = protocol.column_sums(g)
        payload.update({
            "unitary": False,
            "col0_sum_abs": s0,
            "col1_sum_abs": s1,
            "secure": protocol.satisfies_column_sum(g),
            "faithful": False,
            "probes": [],
        })
        return CommandOutput(payload)
    record = protocol.check_gate_admissibility(g, probes)
    payload.update({
        "unitary": True,
        "col0_sum_abs": record.col0_sum_abs,
        "col1_sum_abs": record.col1_sum_abs,
        "secure": record.secure,
        "faithful": record.faithful,
        "probes": [
            {"phi": phi, "c": c, "col0": c0, "col1": c1, "bob_i2_distance": d}
            for phi, c, c0, c1, d in zip(record.probe_phis, record.c_values,
                                         record.col0_sums, record.col1_sums,
                                         record.bob_i2_distances)
        ],
    })
    return CommandOutput(payload)


def cmd_magic_eval(args):
    chosen = [x for x in (args.phi, args.bloch, args.state) if x is not None]
    if len(chosen) != 1:
        raise ValueError("magic-eval needs exactly one of --phi, --bloch, --state")
    if args.phi is not None:
        phi = _angle(args, args.phi)
        rho = phase_plus(phi).density()
        label = f"phase:{phi!r}"
    elif args.bloch is not None:
        vec = _floats(args.bloch, "--bloch")
        if len(vec) != 3:
            raise ValueError("--bloch expects x,y,z")
        rho = dm_from_bloch(vec)
        label = f"bloch:{args.bloch}"
    else:
        rho = NAMED_STATES[args.state]()
        label = f"named:{args.state}"
    result = magic.wigner_distance(rho)
    payload = {
        "state": label,
        "c": result.c_value,
        "f_lhs": result.f_lhs,
        "witness_trace": float(np.trace(result.dual_witness @ rho.mat).real),
        "bloch": [float(v) for v in bloch(rho)],
        "wigner": [float(v) for v in wigner_of(rho).values],
        "mixture": [float(v) for v in result.mixture_weights],
    }
    return CommandOutput(payload)


def cmd_certify(args):
    phi = _angle(args, args.phi)
    if args.shots is None:
        record = steering.certify_exact(phi)
        payload = {
            "mode": "exact",
            "f": record.f_value,
            "f_lhs": record.f_lhs,
            "gap": record.gap,
            "certified_c": record.certified_c,
        }
        return CommandOutput(payload)
    if args.seed is None:
        raise ValueError("--shots mode requires --seed")
    sc = steering.sampled_certification(
        phi, shots=args.shots, noise=_noise_from(args), seed=args.seed, n_boot=args.boot)
    payload = {
        "mode": "sampled",
        "f": sc.record.f_value,
        "f_lhs": sc.record.f_lhs,
        "gap": sc.record.gap,
        "certified_c": sc.record.certified_c,
        "sigma_gap": sc.sigma_gap,
        "n_eff": sc.n_eff,
    }
    return CommandOutput(payload)


def cmd_experiment(args):
    phis = [_angle(args, p) for p in _floats(args.phis, "--phis")]
    report = tomo.experiment_table(
        phis,
        shots=args.shots,
        noise=_noise_from(args),
        seed=args.seed,
        n_boot=args.boot,
    )
    payload = report.to_json_obj()
    csv_text = report.to_csv()
    pretty_lines = ["   phi     C_th   C(rho_C)  sigma_C  Fidelity  sigma_F  C(rho_B)  distill>0.856"]
    for r in report.rows:
        pretty_lines.append(
            f"{r.phi:7.4g} {r.c_theory:8.4g} {r.c_charlie:9.4g} {r.sigma_c:8.4g} "
            f"{r.fidelity:9.4g} {r.sigma_f:8.4g} {r.c_bob:9.4g}  "
            f"{str(r.exceeds_distillation_threshold).lower()}")
    pretty = "\n".join(pretty_lines) + "\n"

    if args.out:
        _require_finite(payload)  # before any file is written
        json_text = _json_text(payload)
        base = Path(args.out)
        base.with_suffix(".csv").write_text(csv_text)
        base.with_suffix(".json").write_text(json_text)
        Path(str(base) + "_curve.csv").write_text(report.plot_data_csv())
        sys.stdout.write(pretty)
        return CommandOutput(payload, already_written=True)
    return CommandOutput(payload, csv=csv_text, pretty=pretty)


def cmd_dump_stabilizers(args):
    sset = enumerate_stabilizer_states(args.n)
    dim = 2 ** args.n
    rows = []
    for i, (state, wv) in enumerate(zip(sset.states, sset.wigner_vertices)):
        rows.append({
            "label": f"S{args.n}_{i:02d}",
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
            "wigner": [float(v) for v in wv.values],
        })
    payload = {"n_qubits": args.n, "count": len(rows), "states": rows}

    header = (["label"]
              + [f"amp{k}_{part}" for k in range(dim) for part in ("re", "im")]
              + [f"w{k}" for k in range(4 ** args.n)])
    csv_lines = [",".join(header)]
    for row in rows:
        flat = [row["label"]]
        for re_im in row["amplitudes"]:
            flat.extend(repr(v) for v in re_im)
        flat.extend(repr(v) for v in row["wigner"])
        csv_lines.append(",".join(flat))
    return CommandOutput(payload, csv="\n".join(csv_lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
