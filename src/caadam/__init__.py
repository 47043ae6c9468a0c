"""Connection-aware Adam variants, Adam-lineage baselines, and a
deterministic MLP benchmark harness, all on plain numpy.

The short version:

>>> import caadam as ca
>>> ds = ca.synth_regression(n=512, m=8, noise_std=0.3, seed=7)
>>> split = ca.split_standardize(ds, seed=7)
>>> net = ca.init_network(ca.NetworkSpec(8, (64, 32), 1), ca.make_rng(7))
>>> opt = ca.make_optimizer(
...     ca.OptimizerConfig("caadam", scaling=ca.ScalingStrategy("multiplicative")),
...     net,
... )
>>> net, log = ca.train(net, opt, split, ca.TrainConfig(max_epochs=30))
>>> rmse = ca.evaluate(net, split.test)
"""

from .bench import (
    CellStats,
    ComparisonReport,
    ExperimentConfig,
    OptimizerEntry,
    TrialResult,
    arch_label,
    build_report,
    default_label,
    experiment_from_dict,
    format_report_table,
    load_dataset,
    load_trials,
    network_spec_for,
    optimizer_entry_from_dict,
    run_experiment,
    run_trial,
    save_report,
    save_timings,
    save_trials,
    trial_setup,
)
from .data import (
    CLASSIFICATION_TASK,
    DEFAULT_SPLIT,
    REGRESSION_TASK,
    Dataset,
    SplitDataset,
    benchmark_regression,
    load_csv,
    split_standardize,
    synth_classification,
    synth_regression,
    synth_regression_surface,
)
from .errors import (
    CaAdamError,
    ConfigError,
    DataError,
    NonFiniteError,
    ShapeError,
)
from .linalg import Matrix, as_matrix, glorot_uniform, make_rng
from .nn import (
    CLASSIFICATION,
    REGRESSION,
    Network,
    NetworkSpec,
    Workspace,
    backward,
    forward,
    init_network,
    loss,
    softmax,
)
from .optim import (
    ALGORITHMS,
    Adadelta,
    Adagrad,
    Adam,
    AdamW,
    Adamax,
    CaAdam,
    Nadam,
    Optimizer,
    OptimizerConfig,
    RmsProp,
    Sgd,
    from_checkpoint,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)
from .scaling import (
    ADDITIVE,
    DEPTH,
    MULTIPLICATIVE,
    SIGNED,
    UNSIGNED,
    ScaleTable,
    ScalingStrategy,
    compute_scale_table,
)
from .stats import (
    WelchResult,
    regularized_incomplete_beta,
    significance_stars,
    student_t_two_sided_p,
    welch_one_sided_p,
    welch_t_test,
)
from .train import (
    STOP_DIVERGED,
    STOP_EARLY,
    STOP_MAX_EPOCHS,
    EarlyStopper,
    EpochRecord,
    PlateauScheduler,
    TrainConfig,
    TrainLog,
    evaluate,
    export_log_csv,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
