"""Command-line entry point wiring every module together.

Subcommands: run, scan, gate-check, magic-eval, certify, experiment,
dump-stabilizers.  All angles are radians unless --degrees is given.  Output
is JSON, CSV, or a human summary (--format pretty); JSON and CSV carry full
double precision, pretty mode rounds to 6 significant digits.  JSON output is
exactly ``json.dumps(payload, indent=2, allow_nan=False)`` plus a newline,
written by a direct renderer that also checks finiteness as it goes.
Sampling commands require an explicit seed; nothing is ever seeded from the
clock.

A handler returns its JSON payload in a :class:`CommandOutput`, with the
zero-argument callables that render its own CSV or pretty table, if it has
one; ``main`` alone reads --format and calls only the renderer asked for.
A payload without its own table is written one leaf per line, by its
dotted key path.  ``experiment --out`` writes its three files and prints its
table itself.

``build_parser()`` is the one definition of the command line; an argv that
starts with a subcommand is read by that subcommand's parser alone, with the
result and messages the full parse gives.  A ``--config`` file's
``key = value`` entries that name flags of the subcommand are parsed as flags
placed before the command line's own, which win.

Exit codes: 0 success, 2 usage error (bad flags, domain preconditions or an
unwritable --out path), 1 internal invariant violation, with the violated
invariant named on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import magic, protocol, steering, tomo
from .qcore import bloch, dm_from_bloch, ket, maximally_mixed, phase_plus, require_unitary
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        if args.config:
            args = _parse_args(_with_config(args, argv))
        output = args.handler(args)
        if output is None:  # the handler wrote its own output
            return 0
        if args.format == "json":
            rendered = _json_text(output.payload)
        else:
            _require_finite(output.payload)  # the CSV and pretty renderings carry the same values
            render = output.csv if args.format == "csv" else output.pretty
            rendered = render() if render else _flat_text(output.payload, args.format)
        if args.out:
            _write_out(Path(args.out), rendered)
            return 0
    except ValueError as exc:
        print(f"mss: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"mss: internal invariant violation: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(rendered)
    return 0


class CommandOutput:
    """Handler result: the JSON payload plus optional zero-argument callables
    that render the command's own CSV or pretty text; ``main`` calls at most
    the one its --format asks for."""

    def __init__(self, payload, csv=None, pretty=None):
        self.payload = payload
        self.csv = csv
        self.pretty = pretty


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
    shared = (
        ("--format", dict(choices=["json", "csv", "pretty"], default="pretty",
                          help="output format (default %(default)s)")),
        ("--out", dict(help="write output to this path")),
        ("--config", dict(help="key = value file supplying defaults for optional flags")),
        ("--degrees", dict(action="store_true", help="interpret all angle inputs as degrees")),
    )
    for name, help_text, handler, flags in (
        ("run", "run one protocol instance and report security", cmd_run, (
            ("--phi", dict(type=float, required=True, help="secret angle")),
            ("--n", dict(type=int, default=3, help="number of parties (3..6)")),
            ("--outcomes", dict(action=_Outcomes,
                                help="force measurement outcomes, e.g. '++-' (omit to sample)")),
            ("--seed", dict(type=int, help="seed for sampled outcomes")))),
        ("scan", "closed-form vs protocol magic over a phi grid", cmd_scan, (
            ("--grid", dict(required=True, help="start:stop:steps (inclusive)")),
            ("--n", dict(type=int, default=3)))),
        ("gate-check", "column-sum security check of an injected gate", cmd_gate_check, (
            ("--matrix", dict(required=True,
                              help="8 comma-separated reals: re,im for G00,G01,G10,G11; a "
                                   "fixed matrix is a constant family, so every probe row "
                                   "is the same gate and faithful is false")),
            ("--probes", dict(
                default="0.39269908169872414,0.7853981633974483,1.0471975511965976,1.3",
                help="comma-separated probe angles (default pi/8,pi/4,pi/3,1.3)")))),
        ("magic-eval", "Wigner distance of a state", cmd_magic_eval, (
            ("--phi", dict(type=float, help="angle of P(phi)|+>")),
            ("--bloch", dict(help="Bloch vector x,y,z")),
            ("--state", dict(choices=sorted(NAMED_STATES), help="named single-qubit state")))),
        ("certify", "1SDI steering certification of delivered magic", cmd_certify, (
            ("--phi", dict(type=float, required=True)),
            ("--shots", dict(type=int, help="finite-shot mode with tomographic reconstruction")),
            ("--seed", dict(type=int, help="required with --shots")),
            ("--noise", dict(default="0,0,0", help="p1,p2,readout (finite-shot mode)")),
            ("--boot", dict(type=int, default=steering.DEFAULT_N_BOOT,
                            help="bootstrap replicas (default %(default)s)")))),
        ("experiment", "shot-sampled pipeline over a list of angles", cmd_experiment, (
            ("--phis", dict(required=True, help="comma-separated secret angles")),
            ("--shots", dict(type=int, default=tomo.DEFAULT_SHOTS,
                             help="shots per circuit (default %(default)s)")),
            ("--noise", dict(default="0,0,0", help="p1,p2,readout (default %(default)s)")),
            ("--seed", dict(type=int, required=True)),
            ("--boot", dict(type=int, default=tomo.DEFAULT_N_BOOT,
                            help="bootstrap replicas (default %(default)s)")))),
        ("dump-stabilizers", "stabilizer vertex table as CSV", cmd_dump_stabilizers, (
            ("--n", dict(type=int, choices=[1, 2], default=1)),)),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags + shared:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    parser.subcommands = sub.choices  # name -> subparser, for _parse_args
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, one level down when ``argv`` starts
    with a subcommand: its own parser reads the rest, as the nested parse
    does, and what it leaves is the top level's usage error."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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


def _write_out(path: Path, text: str) -> None:
    """Write one output file; an unwritable --out path is a usage error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out file {str(path)!r}: {exc.strerror or exc}") from None


def _angle(args, value: float, flag: str) -> float:
    """``value`` in radians, converted if --degrees is given; must be finite."""
    phi = float(np.radians(value)) if args.degrees else float(value)
    if not math.isfinite(phi):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return phi


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


def _seed(args) -> int | None:
    """``--seed`` if given, after the range check that keeps distinct seeds
    distinct: the sampling generators take it as a 64-bit key."""
    seed = args.seed
    if seed is not None and not 0 <= seed < 2 ** 64:
        bound = "non-negative" if seed < 0 else "below 2**64"
        raise ValueError(f"--seed must be {bound}, got {seed}")
    return seed


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


def _flat_text(payload, fmt: str) -> str:
    """The payload's leaves by dotted path, one per line: ``key,value`` CSV
    with floats in full, or pretty aligned columns with 6 significant digits."""
    float_text = repr if fmt == "csv" else lambda v: format(v, ".6g")
    pairs = [(path, str(v).lower() if isinstance(v, bool)
              else float_text(v) if isinstance(v, float) else str(v))
             for path, v in _flatten(payload)]
    if fmt == "csv":
        return "".join(f"{path},{text}\n" for path, text in [("key", "value"), *pairs])
    width = max(len(path) for path, _ in pairs)
    return "".join(f"{path.ljust(width)}  {text}\n" for path, text in pairs)


def _require_finite(payload) -> None:
    """A NaN or infinity anywhere in the payload is an invariant violation,
    named by the path of the first one in document order."""
    for path, value in _flatten(payload):
        if isinstance(value, float) and not math.isfinite(value):
            raise RuntimeError(f"non-finite number in output ({path} = {value!r})")


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False) + "\\n"``, byte for byte,
    written in one walk that is also the finiteness check: a NaN or infinity
    raises :func:`_require_finite`'s RuntimeError, naming its path."""
    parts = []
    try:
        _append_json(payload, parts.append, "\n")
    except ValueError:
        _require_finite(payload)  # a non-finite value
        raise  # a non-finite float key, as json.dumps
    parts.append("\n")
    return "".join(parts)


def _append_json(value, append, newline: str, _str=encode_basestring_ascii,
                 _float=float.__repr__, _finite=math.isfinite) -> None:
    """Append ``value``'s JSON text in pieces; ``newline`` starts a line at its
    depth.  One loop writes a dict's or a list's items, a dict's each after
    its key: finite floats and containers there, any other value by
    :func:`_json_scalar`."""
    if isinstance(value, dict):
        keyed, brackets, items = True, "{}", value.items()
    elif isinstance(value, (list, tuple)):
        keyed, brackets, items = False, "[]", value
    else:
        append(_json_scalar(value))
        return
    if not value:
        append(brackets)
        return
    inner = newline + "  "
    sep = brackets[0] + inner
    for item in items:
        if keyed:
            key, item = item
            sep += (_str(key) if isinstance(key, str) else _str(_json_key(key))) + ": "
        if isinstance(item, float) and _finite(item):
            append(sep + _float(item))
        elif isinstance(item, (dict, list, tuple)):
            append(sep)
            _append_json(item, append, inner)
        else:
            append(sep + _json_scalar(item))
        sep = "," + inner
    append(newline + brackets[1])


def _json_scalar(value) -> str:
    """A JSON scalar's text by json's rules; ValueError and TypeError as json raises them."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A non-str key as json.dumps turns it into a string."""
    if isinstance(key, (int, float)) or key is None:
        return _json_scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dm_to_json(dm) -> dict:
    return {"re": dm.mat.real.tolist(), "im": dm.mat.imag.tolist()}


# --- subcommand handlers ---------------------------------------------------

def cmd_run(args):
    phi = _angle(args, args.phi, "--phi")
    transcript = protocol.run_exact(phi, args.n, outcomes=args.outcomes, seed=_seed(args))
    report = protocol.security_report(transcript)
    final_bloch = bloch(transcript.final_state)
    payload = {
        "phi": transcript.phi,
        "n_parties": transcript.n_parties,
        "outcomes": transcript.outcomes,
        "branch_probability": transcript.branch_probability,
        "correction_parity": transcript.correction_parity,
        "messages": [  # party k broadcasts at step k
            {"sender": k, "outcome": outcome, "step": k}
            for k, outcome in enumerate(transcript.outcomes)
        ],
        "final_c": magic.octahedron_distance(final_bloch),
        "c_theory": magic.c_closed_form(transcript.phi),
        "final_fidelity_to_ideal": float(tomo._fidelity(final_bloch, transcript.phi)),
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
    start, stop = _angle(args, start, "--grid"), _angle(args, stop, "--grid")
    if not math.isfinite(stop - start):
        raise ValueError(f"--grid span from {start!r} to {stop!r} overflows a float")
    grid = np.linspace(start, stop, steps)
    rows = protocol.magic_scan(grid, n=args.n)
    payload = {"rows": [
        {"phi": phi, "c_theory": c_th, "c_protocol": c_pr} for phi, c_th, c_pr in rows
    ]}
    return CommandOutput(
        payload,
        csv=lambda: "".join(["phi,c_theory,c_protocol\n"] + [
            f"{phi!r},{c_th!r},{c_pr!r}\n" for phi, c_th, c_pr in rows]),
        pretty=lambda: "".join(["       phi   c_theory  c_protocol\n"] + [
            f"{phi:10.6g} {c_th:10.6g} {c_pr:11.6g}\n" for phi, c_th, c_pr in rows]))


def cmd_gate_check(args):
    vals = _floats(args.matrix, "--matrix")
    if len(vals) != 8:
        raise ValueError("--matrix expects 8 reals (re,im for G00,G01,G10,G11)")
    g = np.array([[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                  [complex(vals[4], vals[5]), complex(vals[6], vals[7])]])
    probes = [_angle(args, p, "--probes") for p in _floats(args.probes, "--probes")]
    try:
        require_unitary(g)
    except ValueError:
        # Non-unitary input: the protocol runner rejects it, but the column-sum
        # predicate is still well defined and worth reporting, with no probes.
        try:
            s0, s1 = protocol.column_sums(g)
        except ValueError:  # finite entries: a sum past the float range
            raise ValueError(
                f"--matrix column sums overflow a float, got {args.matrix!r}") from None
        unitary, record = False, protocol.GateAdmissibility(
            probe_phis=(), col0_sums=(s0,), col1_sums=(s1,), c_values=(), bob_i2_distances=(),
            secure=protocol.satisfies_column_sum(g), faithful=False)
    else:
        unitary, record = True, protocol.check_gate_admissibility(g, probes)
    return CommandOutput({
        "matrix": [[vals[0], vals[1]], [vals[2], vals[3]],
                   [vals[4], vals[5]], [vals[6], vals[7]]],
        "unitary": unitary,
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


def cmd_magic_eval(args):
    chosen = [x for x in (args.phi, args.bloch, args.state) if x is not None]
    if len(chosen) != 1:
        raise ValueError("magic-eval needs exactly one of --phi, --bloch, --state")
    if args.phi is not None:
        phi = _angle(args, args.phi, "--phi")
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
    b = bloch(rho)
    h = result.witness_terms  # tr(H* P), P = I, X, Y, Z
    payload = {
        "state": label,
        "c": result.c_value,
        "f_lhs": result.f_lhs,
        "witness_trace": float((h[0] + h[1:] @ b) / 2),  # tr(H* rho)
        "bloch": b.tolist(),
        "wigner": wigner_of(rho).tolist(),
        "mixture": result.mixture_weights.tolist(),
    }
    return CommandOutput(payload)


def cmd_certify(args):
    phi = _angle(args, args.phi, "--phi")
    seed = _seed(args)
    if args.shots is None:
        mode, record, spread = "exact", steering.certify_exact(phi), {}
    elif seed is None:
        raise ValueError("--shots mode requires --seed")
    else:
        sc = steering.sampled_certification(
            phi, shots=args.shots, noise=_noise_from(args), seed=seed, n_boot=args.boot)
        mode, record, spread = "sampled", sc.record, {"sigma_gap": sc.sigma_gap, "n_eff": sc.n_eff}
    return CommandOutput({
        "mode": mode,
        "f": record.f_value,
        "f_lhs": record.f_lhs,
        "gap": record.gap,
        "certified_c": record.certified_c,
        **spread,
    })


def cmd_experiment(args):
    phis = [_angle(args, p, "--phis") for p in _floats(args.phis, "--phis")]
    report = tomo.experiment_table(
        phis,
        shots=args.shots,
        noise=_noise_from(args),
        seed=_seed(args),
        n_boot=args.boot,
    )
    payload = report.to_json_obj()

    def pretty():
        return "".join(["   phi     C_th   C(rho_C)  sigma_C  Fidelity  sigma_F  C(rho_B)"
                        f"  distill>{tomo.DISTILLATION_THRESHOLD}\n"] + [
            f"{r.phi:7.4g} {r.c_theory:8.4g} {r.c_charlie:9.4g} {r.sigma_c:8.4g} "
            f"{r.fidelity:9.4g} {r.sigma_f:8.4g} {r.c_bob:9.4g}  "
            f"{str(r.exceeds_distillation_threshold).lower()}\n" for r in report.rows])

    if not args.out:
        return CommandOutput(payload, csv=report.to_csv, pretty=pretty)
    # --out names three files and the table goes to stdout, whatever --format says.
    json_text = _json_text(payload)  # checked before any file is written
    base = Path(args.out)
    _write_out(base.with_suffix(".csv"), report.to_csv())
    _write_out(base.with_suffix(".json"), json_text)
    stem = base.with_suffix("")
    _write_out(stem.with_name(stem.name + "_curve.csv"), report.plot_data_csv())
    sys.stdout.write(pretty())
    return None


def cmd_dump_stabilizers(args):
    sset = enumerate_stabilizer_states(args.n)
    dim = 2 ** args.n
    rows = []
    for i, (state, w) in enumerate(zip(sset.states, sset.vertex_matrix.T)):
        rows.append({
            "label": f"S{args.n}_{i:02d}",
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
            "wigner": [float(v) for v in w],
        })
    payload = {"n_qubits": args.n, "count": len(rows), "states": rows}

    def csv():
        header = (["label"]
                  + [f"amp{k}_{part}" for k in range(dim) for part in ("re", "im")]
                  + [f"w{k}" for k in range(4 ** args.n)])
        return "".join([",".join(header) + "\n"] + [
            ",".join([row["label"], *(repr(v) for re_im in row["amplitudes"] for v in re_im),
                      *map(repr, row["wigner"])]) + "\n" for row in rows])

    return CommandOutput(payload, csv=csv)


if __name__ == "__main__":
    sys.exit(main())
