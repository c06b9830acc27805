"""Simulator and analysis toolkit for interlinked-context noncontextuality
tests on entangled spin pairs: exact quantum predictions, classical
two-valued-state enumeration, and reproducible simulated runs.

The package root holds only the names README's "Library use" imports; every
other public name is imported from its module, such as
``from contextsim.errors import ContextsimError``."""

from .correlations import expectation, joint_distribution, verify_uniqueness
from .greechie import diagram_from_contexts, two_valued_states
from .observables import ks_context, ks_context_prime
from .sampler import empirical_report, sample, write_shot_csv
from .states import density, spin1_singlet

__version__ = "0.1.0"
