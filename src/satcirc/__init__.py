"""Saturated-attention transformers over exact binary arithmetic, compiled
to constant-depth threshold circuits.

Submodules:
    bitnum    exact datatypes (unsigned naturals, rationals, dyadic floats)
    machine   expression language, transformer specs, the reference evaluator
    builtins  ready-made constructions (majority, prime-universal, ...)
    circuit   threshold-circuit representation, evaluation, family metrics
    synth     gate-level builders for arithmetic on packed floats
    compile   transformer -> circuit compilation and equivalence checking
"""

from .bitnum import (
    BitNumError, UNat, Rat, Flt, rat, flt, size,
)
from .machine import (
    MachineError, AttentionKind, HeadSpec, LayerSpec, TransformerSpec,
    Const, Arg, Proj, Tup, Add, Mul, Div, Sqrt, Neg, Relu, Gt, Eq,
    Select, Affine, Pow2, Host,
    eval_expr, run, recognize, instrument_sizes, parse_spec, load_spec,
)
from .builtins import (
    BUILTIN_NAMES, builtin_spec, build_majority, build_majority_layernorm,
    build_prime_universal, build_resource_bounded, build_hard_demo,
)
from .circuit import (
    CircuitError, Circuit, eval_batch, metrics, family_analyze,
    to_json, from_json, to_dot,
)
from .synth import SynthError, Builder, manifest
from .compile import (
    CompileError, default_samples, encode_word, compile_planned,
    compile_saturated, compile_hard, check_circuit, verify_equivalence,
)

__version__ = "0.1.0"
