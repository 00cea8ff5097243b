"""Magic secret sharing toolkit.

Simulates the GHZ-based protocol that distributes non-stabilizer
("magic") resource states with an (n-1, n) threshold, computes the
Wigner distance to the stabilizer polytope (in closed form for one qubit,
by linear programming for two; zero is Clifford-invariant, nonzero joint
values depend on the frame), certifies
delivery through steering correlations, and reproduces the shot-sampled
tomography analysis pipeline at desk scale.

``__all__`` is the public API.
"""

from .magic import MagicResult, c_closed_form, octahedron_distance, wigner_distance
from .protocol import (
    GateAdmissibility,
    ProtocolTranscript,
    bob_marginal_after_projection,
    check_gate_admissibility,
    magic_scan,
    phase_gate_family,
    run_all_branches,
    run_exact,
    security_report,
    x_rotation_family,
)
from .qcore import DensityMatrix, PureState, phase_gate, phase_plus, tensor, trace_distance
from .stabilizer import enumerate_stabilizer_states
from .steering import (
    Assemblage,
    CertificationRecord,
    build_assemblage,
    certify_exact,
    evaluate_functional,
    random_lhs_assemblage,
    sampled_certification,
    solve_witness,
    z_setting_probe,
)
from .tomo import NoiseModel, experiment_table, reconstruct, sample_run
from .wigner import wigner_of

__version__ = "0.1.0"

__all__ = [
    "Assemblage",
    "CertificationRecord",
    "DensityMatrix",
    "GateAdmissibility",
    "MagicResult",
    "NoiseModel",
    "ProtocolTranscript",
    "PureState",
    "bob_marginal_after_projection",
    "build_assemblage",
    "c_closed_form",
    "certify_exact",
    "check_gate_admissibility",
    "enumerate_stabilizer_states",
    "evaluate_functional",
    "experiment_table",
    "magic_scan",
    "octahedron_distance",
    "phase_gate",
    "phase_gate_family",
    "phase_plus",
    "random_lhs_assemblage",
    "reconstruct",
    "run_all_branches",
    "run_exact",
    "sample_run",
    "sampled_certification",
    "security_report",
    "solve_witness",
    "tensor",
    "trace_distance",
    "wigner_distance",
    "wigner_of",
    "x_rotation_family",
    "z_setting_probe",
]
