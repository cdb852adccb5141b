"""Memory-length and conditional-probability estimation for finitarily
Markovian processes over countable alphabets."""

from .backward import (
    TestVerdict,
    backward_memory_estimate,
    max_discrepancy,
    memory_word_test,
)
from .condprob import (
    CondProbEstimate,
    IidCheck,
    RecurrenceTimes,
    backward_recurrences,
    cond_prob_from_recurrences,
    cond_prob_markov,
    estimate_cond_prob,
    estimate_markov_order,
    estimate_successor_law,
    forward_recurrences,
    iid_structure_test,
)
from .counting import (
    CountIndex,
    count_context,
    count_transition,
    empirical_cond_prob,
    frequent_extensions,
    is_frequent,
)
from .errors import (
    ImpossiblePastError,
    InsufficientRecurrencesError,
    InvalidModelError,
    MemlenError,
    OutOfRangeError,
    UndefinedConditionalError,
)
from .forward import (
    Reconstruction,
    ReconstructionScheme,
    StoppingDecision,
    available_depth,
    decide_p,
    decide_r,
    forward_index,
    occurrence_set,
    reconstruct_past,
)
from .oracles import OracleAnswer, exact_chain, oracle_cond, oracle_memory
from .processes import (
    GeometricJumpChain,
    HiddenFunctionModel,
    LadderFunctionProcess,
    MarkovKernel,
    PerturbedJumpChain,
    RenewalProcess,
    generate,
    load_model,
    make_rng,
    model_from_spec,
    model_to_spec,
    parity_chain,
    perturbed_chain_stage,
)
from .sequence import (
    EMPTY_WORD,
    UNBOUNDED,
    EstimatorParams,
    MemoryLength,
    Sample,
    Word,
    read_sample,
    suffix,
    write_sample,
)

__version__ = "0.1.0"
