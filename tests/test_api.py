"""Guards on the package surface.

Every public module-level function and class in ``src/mss`` is either used
inside ``src/`` or named in ``mss.__all__``: a public name that nothing in
the package calls and that the public API does not list is a test-only
helper or dead code, and oracles the tests need live under ``tests/``.

Every record type is frozen and holds only read-only data, and so does
every module-level table.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import re
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import mss
from mss import magic, protocol, qcore, simplex, stabilizer, steering, tomo

SRC = Path(mss.__file__).resolve().parent


def _used_names(node: ast.AST) -> set[str]:
    """Names a subtree reads, as bare names or as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _definitions_and_uses():
    """(module, name, names used everywhere else in src/) per public top-level def."""
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.stem, stmt) for stmt in tree.body]
    uses = [_used_names(stmt) for _, stmt in statements]
    for i, (module, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            elsewhere = set().union(*(u for j, u in enumerate(uses) if j != i))
            yield module, stmt.name, elsewhere


def test_every_public_definition_is_used_or_exported():
    exported = set(mss.__all__)
    unused = [f"{module}.{name}" for module, name, elsewhere in _definitions_and_uses()
              if name not in elsewhere and name not in exported]
    assert unused == [], f"public but neither used in src/ nor in mss.__all__: {unused}"


def test_every_exported_name_resolves():
    missing = [name for name in mss.__all__ if not hasattr(mss, name)]
    assert missing == []
    assert len(set(mss.__all__)) == len(mss.__all__)


def _records():
    """One instance of every record type, each from the code that makes it."""
    noise = tomo.NoiseModel.symmetric(0.003, 0.015, 0.01)
    table = tomo.sample_run(0.3, "X", 256, noise, seed=1)
    corrected = [tomo.post_select_and_correct(tomo.sample_run(0.3, b, 256, noise, seed=1))
                 for b in ("X", "Y", "Z")]
    transcript = protocol.run_exact(0.7, 4, outcomes="+-+")
    report = tomo.experiment_table([0.3], shots=256, noise=noise, seed=1, n_boot=100)
    return [
        magic.wigner_distance(qcore.phase_plus(math.pi / 4).density()),
        magic.wigner_distance(qcore.maximally_mixed(2)),  # the clamped, zero-witness result
        transcript,
        protocol.security_report(transcript)[0],
        protocol.check_gate_admissibility(protocol.phase_gate_family, [0.3, 0.7]),
        qcore.phase_plus(0.3),
        qcore.phase_plus(0.3).density(),
        simplex.solve_lp(magic._lp_constants(2)[1], np.full(16, 1 / 16), 0),
        stabilizer.enumerate_stabilizer_states(2),
        steering.build_assemblage(0.3),
        steering.certify_exact(0.3),
        steering.sampled_certification(0.3, shots=256, noise=noise, seed=1, n_boot=100),
        noise,
        table,
        corrected[0],
        tomo.reconstruct(*corrected),
        report.rows[0],
        report,
    ]


RECORDS = _records()


def _held(value):
    """Every value reachable from a record through fields, sequences and mappings."""
    yield value
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _held(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _held(v)
    elif isinstance(value, Mapping):
        for v in value.values():
            yield from _held(v)


RECORD_TYPES = {value for module in (magic, protocol, qcore, simplex, stabilizer, steering, tomo)
                for value in vars(module).values()
                if isinstance(value, type) and dataclasses.is_dataclass(value)}


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == RECORD_TYPES


def _functions(record_type):
    """Every function a record type defines or inherits, unwrapped from its descriptor."""
    for klass in record_type.__mro__[:-1]:  # not object
        for name, value in vars(klass).items():
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if isinstance(value, property):
                yield from ((name, f) for f in (value.fget, value.fset, value.fdel) if f)
            elif isinstance(value, functools.cached_property):
                yield name, value.func
            elif isinstance(value, types.FunctionType):
                yield name, value


def _generated(record_type, *sources: Path) -> list[str]:
    """The functions of a record type written outside ``sources`` (by
    default the package source): generated from a string."""
    return [name for name, func in _functions(record_type)
            if not any(Path(func.__code__.co_filename).resolve().is_relative_to(source)
                       for source in sources or (SRC,))]


@pytest.mark.parametrize("record_type", sorted(RECORD_TYPES, key=lambda t: t.__name__),
                         ids=lambda t: t.__name__)
def test_record_methods_are_written_in_the_package_source(record_type):
    """No record method is generated from a string, as a plain frozen
    dataclass's are: every process would write and exec them at import."""
    assert _generated(record_type) == []


def test_record_bases_are_no_dataclasses():
    assert not dataclasses.is_dataclass(qcore.Record)
    assert not dataclasses.is_dataclass(qcore.ValueRecord)


def test_a_record_subclass_with_fields_becomes_a_dataclass():
    class Pair(qcore.ValueRecord):
        """Two fields and an __init__ of its own, like every package record."""

        left: int
        right: tuple

        def __init__(self, left, right) -> None:
            self.__dict__.update(left=left, right=right)

    assert dataclasses.is_dataclass(Pair)
    assert [f.name for f in dataclasses.fields(Pair)] == ["left", "right"]
    assert Pair.__match_args__ == ("left", "right")
    pair = Pair(1, (2,))
    match pair:
        case Pair(left, right):
            assert (left, right) == (1, (2,))
    copy = dataclasses.replace(pair, left=3)
    assert type(copy) is Pair and copy.left == 3 and copy.right is pair.right
    assert dataclasses.replace(pair) == pair
    assert repr(pair) == f"{Pair.__qualname__}(left=1, right=(2,))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.left = 3
    assert _generated(Pair, SRC, Path(__file__).resolve()) == []


@pytest.mark.parametrize("record_type", sorted(RECORD_TYPES, key=lambda t: t.__name__),
                         ids=lambda t: t.__name__)
def test_record_init_takes_the_fields_in_order(record_type):
    params = list(inspect.signature(record_type.__init__).parameters.values())[1:]
    fields = dataclasses.fields(record_type)
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        assert p.default == (p.empty if f.default is dataclasses.MISSING else f.default)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_frozen_and_hold_read_only_arrays(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    for value in _held(record):
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value.flat[0] = value.flat[0]


def test_module_tables_are_read_only():
    modules = [mss] + [importlib.import_module(f"mss.{m.name}")
                       for m in pkgutil.iter_modules(mss.__path__)]
    writable = []
    for module in modules:
        for name, value in vars(module).items():
            items = value.items() if isinstance(value, dict) else [(None, value)]
            writable += [f"{module.__name__}.{name}" + ("" if key is None else f"[{key!r}]")
                         for key, v in items if isinstance(v, np.ndarray) and v.flags.writeable]
    assert writable == []


# Records that compare and hash by their field values; every other record
# compares by identity.  An Assemblage holds a mapping, so it is unhashable.
VALUE_RECORDS = {steering.Assemblage, steering.CertificationRecord, tomo.CorrectedCounts,
                 tomo.ExperimentReport, tomo.ExperimentRow, protocol.GateAdmissibility,
                 steering.SampledCertification}
# The one field each validating record copies on construction.
COPIED_FIELD = {qcore.PureState: "amps", qcore.DensityMatrix: "mat", tomo.NoiseModel: "readout",
                tomo.CountsTable: "counts", steering.Assemblage: "members"}


def _field_values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_replace_rebuilds_from_the_same_field_objects(record):
    copy = dataclasses.replace(record)
    assert type(copy) is type(record) and copy is not record
    copied = COPIED_FIELD.get(type(record))
    for f in dataclasses.fields(record):
        old, new = getattr(record, f.name), getattr(copy, f.name)
        if f.name != copied:
            assert new is old, f.name
        elif isinstance(old, np.ndarray):
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        else:
            assert new == old


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_deleted(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
        assert hasattr(record, f.name)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_repr_names_every_field(record):
    fields = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in dataclasses.fields(record))
    assert repr(record) == f"{type(record).__qualname__}({fields})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_equality_and_hash(record):
    copy = dataclasses.replace(record)
    assert record == record
    assert record != tuple(_field_values(record))
    if type(record) not in VALUE_RECORDS:
        assert copy != record
        assert hash(record) == object.__hash__(record)
    elif isinstance(record, steering.Assemblage):
        assert copy == record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert copy == record
        assert hash(copy) == hash(record) == hash(tuple(_field_values(record)))


@pytest.mark.parametrize("record_type, name", [
    (steering.Assemblage, "members"),
], ids=["Assemblage"])
def test_record_mappings_are_read_only_copies(record_type, name):
    record = next(r for r in RECORDS if isinstance(r, record_type))
    mapping = getattr(record, name)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    copy = dict(mapping)
    rebuilt = dataclasses.replace(record, **{name: copy})
    copy[key] = None
    assert getattr(rebuilt, name)[key] == mapping[key]


def test_records_with_arrays_compare_by_identity():
    m = qcore.maximally_mixed(1).mat
    a, b = qcore.DensityMatrix(m), qcore.DensityMatrix(m.copy())
    assert a == a and a != b


def _assemblage_with(key, member):
    members = dict(steering.build_assemblage(0.3).members)
    members[key] = member
    return steering.Assemblage(members=members)


def _lopsided_assemblage():
    """The X setting's outcome probabilities raised to sum to 1.1."""
    p, sigma = steering.build_assemblage(0.3).members[("X", 0)]
    return _assemblage_with(("X", 0), (p + 0.1, sigma))


_ZERO_STATE = qcore.ket("0")
# The L1 fit of one number over the vertices 0, 1 and 2.
_L1_FIT = np.array([[0.0, 1.0, 2.0, 1.0, -1.0], [1.0, 1.0, 1.0, 0.0, 0.0]])
_L1_FIT.setflags(write=False)
BAD_INPUTS = {
    "keep bit 2": (lambda: tomo.post_select_and_correct(
        tomo.sample_run(0.3, "X", 16, tomo.NoiseModel.none(), seed=1), 2),
        ValueError, "alice_keep_bit must be 0 or 1"),
    "no angles": (lambda: tomo.experiment_table([], 16, tomo.NoiseModel.none(), seed=1),
                  ValueError, "phi list must be nonempty"),
    "empty counts": (lambda: tomo.CorrectedCounts("X", 0, 0).expectation,
                     ValueError, "empty post-selected sample"),
    "probabilities sum to 1.1": (_lopsided_assemblage, ValueError,
                                 "outcome probabilities for X sum to 1.1"),
    "setting averages differ": (lambda: _assemblage_with(("X", 0), (0.5, _ZERO_STATE.density())),
                                ValueError, "no-signalling violated"),
    "3x3 column sums": (lambda: protocol.column_sums(np.eye(3)), ValueError,
                        "expected a 2x2 matrix"),
    "3x3 gate": (lambda: qcore.require_unitary(np.eye(3)), ValueError, "expected a 2x2 gate"),
    "4x4 transfer matrix": (lambda: qcore.ptm(np.eye(4)), ValueError,
                            "expected a 2x2 gate, got shape (4, 4)"),
    "2x3 density": (lambda: qcore.DensityMatrix(np.ones((2, 3))), ValueError,
                    "expected a square matrix"),
    "3x3 density": (lambda: qcore.DensityMatrix(np.eye(3) / 3), ValueError,
                    "dimension 3 is not a power of two"),
    "3 amplitudes": (lambda: qcore.PureState(np.ones(3) / math.sqrt(3)), ValueError,
                     "length 3 is not a power of two"),
    "empty ket": (lambda: qcore.ket(""), ValueError, "bit label must be nonempty"),
    "mixed tensor": (lambda: qcore.tensor(_ZERO_STATE, _ZERO_STATE.density()), TypeError,
                     "two PureStates or two DensityMatrices"),
    "LP dimensions": (lambda: simplex.solve_lp(_L1_FIT, [0.5, 0.5], 0), ValueError,
                      "w must be a finite float64 vector of length 1"),
    "LP basis index -1": (lambda: simplex.solve_lp(_L1_FIT, [0.5], -1), ValueError,
                          "vertex must be an integer in [0, 3)"),
    "LP basis index 3": (lambda: simplex.solve_lp(_L1_FIT, [0.5], 3), ValueError,
                         "vertex must be an integer in [0, 3)"),
    "LP w NaN": (lambda: simplex.solve_lp(_L1_FIT, [math.nan], 0), ValueError,
                 "w must be a finite float64 vector of length 1"),
    "LP w inf": (lambda: simplex.solve_lp(_L1_FIT, [math.inf], 0), ValueError,
                 "w must be a finite float64 vector of length 1"),
    "LP writable A": (lambda: simplex.solve_lp(_L1_FIT.copy(), [0.5], 0), ValueError,
                      "A must be read-only"),
    "LP non-L1 A": (lambda: simplex.solve_lp(_L1_FIT[:, :-1], [0.5], 0), ValueError,
                    "A must be [F | I | -I ; 1...1 | 0 | 0] with F finite"),
    "C at phi NaN": (lambda: magic.c_closed_form(math.nan), ValueError,
                     "phi must be finite, got nan"),
    "C at phi inf": (lambda: magic.c_closed_form(math.inf), ValueError,
                     "phi must be finite, got inf"),
    "NaN Bloch vector": (lambda: magic.octahedron_distance([math.nan, 0.0, 0.0]), ValueError,
                         "Bloch vectors must be finite, got nan"),
    "infinite Bloch vector": (lambda: magic.octahedron_distance([[0.5, 0.0, 0.0],
                                                                [math.inf, 0.0, 0.0]]),
                              ValueError, "Bloch vectors must be finite, got inf"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_raises_with_a_message(name):
    call, error, message = BAD_INPUTS[name]
    with pytest.raises(error, match=re.escape(message)):
        call()


# Every parameter with a default, of every function, method and lambda in
# src/mss, as written there.  A new option fails here until it is listed on
# purpose; a tolerance or a limit is a module constant, never a parameter.
OPTIONS = {
    "cli.main": ["argv=None"],
    "cli.CommandOutput.__init__": ["csv=None", "pretty=None"],
    "cli._Outcomes.__call__": ["option_string=None"],
    "cli._flatten": ["prefix=''"],
    "cli._append_json": ["_str=encode_basestring_ascii", "_float=float.__repr__",
                         "_finite=math.isfinite"],
    "protocol.run_exact": ["n=3", "outcomes=None", "seed=None"],
    "protocol.run_all_branches": ["n=3"],
    "protocol.magic_scan": ["n=3"],
    "qcore.maximally_mixed": ["n=1"],
    "steering.sampled_certification": ["n_boot=DEFAULT_N_BOOT"],
    "tomo.CountsTable.__init__": ["party='charlie'", "alice_setting='X'"],
    "tomo.circuit_probabilities": ["party='charlie'", "alice_setting='X'"],
    "tomo.sample_run": ["party='charlie'", "alice_setting='X'"],
    "tomo.post_select_and_correct": ["alice_keep_bit=0"],
    "tomo.experiment_table": ["n_boot=DEFAULT_N_BOOT"],
}
NO_PARAMETER = {"tol", "atol", "max_iter", "n_curve"}


def _signatures():
    """(qualified name, ast.arguments) of every function, method and lambda in src/mss."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                yield name, child.args
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text(), filename=str(path)), path.stem + ".")


def test_every_option_is_listed():
    options = {}
    for name, args in _signatures():
        positional = args.posonlyargs + args.args
        pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                 *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)]
        if pairs:
            options.setdefault(name, []).extend(f"{a.arg}={ast.unparse(d)}" for a, d in pairs)
    assert options == OPTIONS


def test_no_function_takes_a_tolerance_or_a_limit():
    taken = [f"{name}({a.arg})" for name, args in _signatures()
             for a in [*args.posonlyargs, *args.args, *args.kwonlyargs] if a.arg in NO_PARAMETER]
    assert taken == []
