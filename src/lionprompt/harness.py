"""Desk-scale experiment suite.

Synthetic source/target task pairs with controlled domain shift (one recipe
for both, `source_task` and `target_task`), backbone pretraining, the task
factory and run of the tuning protocols (head / bias / full, each a
`ClassifierTask`; prompted, a `model.PromptModel`), long-tail and few-shot
resamplers, the input-vs-output prompt-position experiment, and the gradient
cross-check suite, which pulls through `PromptBlock.vjp` as training does and
reads x's gradient off b's. A command's entry point takes its whole `RunConfig`.

Everything here is a pure function of (spec, seed): all randomness flows
through named substreams, so any artifact can be regenerated bit-identically
from its parameters.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import deq, model as m, robust_opt
from .config import RunConfig
from .deq import PromptBlock, SolverConfig
from .errors import ConfigError, DivergenceError, SetupError, ShapeMismatchError, within
from .model import AffineStage, Backbone
from .numerics import Param, batch_cross_entropy, rel_error
from .rng import substream

MIN_SOURCE_ACCURACY = 0.95     # source train accuracy a pretrained backbone must reach
PRETRAIN_MIN_EPOCHS = 300      # the fewest epochs a backbone pretrains for
N_CLASSES = 4                  # classes of every source and target task
GRADCHECK_TOL = 1e-13          # the loosest solver tolerance gradient checks run at
UNROLLED_TOL = 1e-5            # gradcheck's bound on implicit vs unrolled gradient error
MAX_UNROLL_DEPTH = 100_000     # the most steps gradcheck unrolls: kappa up to about 0.99964


# --- datasets ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    inputs: np.ndarray      # N x d, float64
    labels: np.ndarray      # int class indices, length N
    n_classes: int
    split: str              # "train" | "test"
    seed: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.labels) != self.inputs.shape[0]:
            raise ShapeMismatchError(
                f"inputs {self.inputs.shape} vs {len(self.labels)} labels")
        if self.inputs.shape[0] == 0:
            raise ValueError("empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("label out of range")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def _balanced_labels(n: int, c: int) -> np.ndarray:
    """n class indices in class order, balanced; the remainder goes to the first classes."""
    if n < c * 10:
        raise ValueError(f"need at least {c * 10} samples, got {n}")
    return np.repeat(np.arange(c), np.full(c, n // c) + (np.arange(c) < n % c))


def make_blobs(n_classes: int, d: int, n: int, seed: int, split: str = "train") -> Dataset:
    """Gaussian clusters (sigma = 1) with pairwise mean distance 6.

    Class means sit on the first n_classes axes at radius 6/sqrt(2), so
    every pair of means is exactly 6 apart. The means depend only on the
    seed — train and test splits share them and differ in noise.
    """
    if n_classes < 2 or n_classes > d:
        raise ValueError(f"need 2 <= n_classes <= d, got C={n_classes}, d={d}")
    labels = _balanced_labels(n, n_classes)
    means = np.zeros((n_classes, d))
    means[np.arange(n_classes), np.arange(n_classes)] = 6.0 / np.sqrt(2.0)
    noise_rng = substream(seed, "blob-noise", split)
    inputs = means[labels] + noise_rng.normal(size=(n, d))
    order = noise_rng.permutation(n)
    return Dataset(inputs[order], labels[order], n_classes, split, seed)


def make_glyphs(n_classes: int, n: int, seed: int, split: str = "train") -> Dataset:
    """Procedural 8x8 binary patterns per class, flattened to d = 64.

    Each class owns a fixed random mask (seed-determined, split-independent);
    samples are that mask with independent pixel flips at probability 0.1.
    """
    if n_classes < 2:
        raise ValueError(f"need n_classes >= 2, got {n_classes}")
    labels = _balanced_labels(n, n_classes)
    base_rng = substream(seed, "glyph-base")
    bases = (base_rng.random(size=(n_classes, 64)) < 0.5).astype(np.float64)
    noise_rng = substream(seed, "glyph-noise", split)
    flips = noise_rng.random(size=(n, 64)) < 0.1
    inputs = np.abs(bases[labels] - flips.astype(np.float64))
    order = noise_rng.permutation(n)
    return Dataset(inputs[order], labels[order], n_classes, split, seed)


# --- domain shift -------------------------------------------------------------

def _random_orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def shift(ds: Dataset, kind: str, seed: int) -> Dataset:
    """`ds` under the seed-deterministic shift `kind`; labels are reused as-is.

    invertible_linear maps x -> A x, A = Q1 diag(sv) Q2^T with singular values
    spread linearly over [0.8, 2.0]: invertible, condition number 2.5.
    rotation maps x -> Q x, Q orthogonal with determinant +1. noise adds
    sigma-0.5 noise from the split's own stream; none returns `ds` itself.
    """
    if kind == "none":
        return ds
    if kind == "noise":
        rng = substream(ds.seed, "shift-noise", ds.split)
        return replace(ds, inputs=ds.inputs + 0.5 * rng.normal(size=ds.inputs.shape))
    rng = substream(seed, "shift", kind)
    if kind == "invertible_linear":
        sv = np.linspace(0.8, 2.0, ds.d)
        a = _random_orthogonal(rng, ds.d) @ np.diag(sv) @ _random_orthogonal(rng, ds.d).T
    elif kind == "rotation":
        a = _random_orthogonal(rng, ds.d)
        if np.linalg.det(a) < 0:
            a[:, 0] = -a[:, 0]
    else:
        raise ValueError(f"unknown shift kind {kind!r}")
    return replace(ds, inputs=ds.inputs @ a.T)


# --- resamplers ----------------------------------------------------------------

def _keep_per_class(ds: Dataset, stream: str, keep: list[int]) -> Dataset:
    """`keep[c]` rows of each class c, drawn from its own `stream` substream, in row order."""
    idx = np.sort(np.concatenate([substream(ds.seed, stream, c).choice(
        np.flatnonzero(ds.labels == c), size=k, replace=False) for c, k in enumerate(keep)]))
    return replace(ds, inputs=ds.inputs[idx], labels=ds.labels[idx])


def resample_longtail(ds: Dataset, imbalance_ratio: float) -> Dataset:
    """Exponential long-tail profile: class c keeps N_max * IR^(-c/(C-1)).

    The head class keeps the current maximum class size, the tail class
    1/IR of it; classes in between decay geometrically.
    """
    if imbalance_ratio < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {imbalance_ratio}")
    counts = ds.class_counts()
    n_max = int(counts.max())
    c = ds.n_classes
    keep = []
    for cls in range(c):
        frac = 1.0 if c == 1 else cls / (c - 1)
        target = int(round(n_max * imbalance_ratio ** (-frac)))
        if target == 0:
            raise ValueError(f"imbalance ratio {imbalance_ratio} empties class {cls}")
        keep.append(min(target, int(counts[cls])))
    return _keep_per_class(ds, "longtail", keep)


def resample_fewshot(ds: Dataset, shots: int) -> Dataset:
    """Exactly `shots` seed-chosen samples per class."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    for cls, n in enumerate(ds.class_counts()):
        if n < shots:
            raise ValueError(f"class {cls} has {n} samples, fewer than {shots} shots")
    return _keep_per_class(ds, "fewshot", [shots] * ds.n_classes)


# --- the source and target tasks ---------------------------------------------------

def _split(cfg: RunConfig, split: str, n: int) -> Dataset:
    if cfg.dataset == "blobs":
        return make_blobs(N_CLASSES, 16, n, cfg.seed, split)
    return make_glyphs(N_CLASSES, n, cfg.seed, split)


def source_task(cfg: RunConfig) -> Dataset:
    """The backbone's task: 400 unshifted `cfg.dataset` training rows."""
    return _split(cfg, "train", 400)


def target_task(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """(train, test) of 200 rows each, under `cfg.shift` drawn at a seed of its own.

    Only train is then resampled: long-tail when `cfg.ir` > 1, then few-shot
    when `cfg.shots` > 0; a resampling it cannot take is a ConfigError.
    """
    train, test = (shift(_split(cfg, split, 200), cfg.shift, 100 + cfg.seed)
                   for split in ("train", "test"))
    key = "ir"      # the key whose resampler runs; a ValueError is that key's error
    try:
        if cfg.ir > 1.0:
            train = resample_longtail(train, cfg.ir)
        key = "shots"
        if cfg.shots > 0:
            train = resample_fewshot(train, cfg.shots)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from None
    return train, test


# --- tasks and pretraining ------------------------------------------------------

class ClassifierTask:
    """Backbone plus affine head under the shared trainer: the baselines.

    The head and exactly the backbone Params in `backbone_trainable` train.
    It partitions nothing, so every trainable parameter takes plain descent.
    """

    def __init__(self, backbone: Backbone, head: AffineStage, backbone_trainable: list[Param]):
        self.backbone = backbone
        self.head = head
        self.backbone_trainable = backbone_trainable
        self.workspace: dict = {}

    def partitioned_params(self):
        return []

    def trainable_params(self):
        return self.backbone_trainable + [self.head.w, self.head.b]

    def forward(self, x):
        feats, _ = m.backbone_forward(self.backbone, x, self.workspace)
        return feats @ self.head.w.value.T + self.head.b.value

    def loss_and_grads(self, x, y):
        """(mean cross-entropy, logits); gradients go into the trainable Params."""
        feats, cache = m.backbone_forward(self.backbone, x, self.workspace)
        logits = feats @ self.head.w.value.T + self.head.b.value
        value, g_logits = batch_cross_entropy(logits, np.asarray(y))
        self.head.w.add_grad(g_logits.T @ feats)
        self.head.b.add_grad(np.sum(g_logits, axis=0))
        if self.backbone_trainable:
            m.backbone_param_vjp(self.backbone, cache, g_logits @ self.head.w.value,
                                 self.backbone_trainable, self.workspace)
        return value, logits

    def predict(self, x):
        return np.argmax(self.forward(x), axis=1)


def initial_backbone(cfg: RunConfig) -> Backbone:
    """The backbone `pretrain_backbone(cfg)` fits, at its initial values."""
    return m.make_backbone(source_task(cfg).d, cfg.hidden, cfg.feat_dim, cfg.seed)


def pretrain_backbone(cfg: RunConfig) -> tuple[Backbone, float]:
    """Fit `initial_backbone(cfg)` and a throwaway head on `source_task(cfg)` at `cfg.eta`
    for `cfg.epochs`, at least `PRETRAIN_MIN_EPOCHS`. Returns the backbone and its source
    train accuracy; refuses a feature extractor that never learned the task."""
    backbone, src = initial_backbone(cfg), source_task(cfg)
    task = ClassifierTask(backbone, m.make_head(backbone.out_dim, N_CLASSES), backbone.params())
    accuracy = robust_opt.train(task, (src.inputs, src.labels), cfg.optimizer,
                                max(cfg.epochs, PRETRAIN_MIN_EPOCHS)).final_accuracy
    if accuracy < MIN_SOURCE_ACCURACY:
        raise SetupError(f"backbone pretraining reached {accuracy:.3f} < "
                         f"{MIN_SOURCE_ACCURACY} train accuracy")
    return backbone, accuracy


# --- protocol runs ------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolResult:
    accuracy: float            # held-out split only
    trainable_params: int
    wall_time_s: float
    log: robust_opt.TrainLog   # its final_accuracy is the train accuracy
    task: object               # the trained PromptModel or ClassifierTask, for checkpointing


def make_task(cfg: RunConfig, backbone: Backbone):
    """Fresh, untrained task for `cfg.protocol` around a clone of the backbone:
    the `PromptModel` itself for `lion`, else a `ClassifierTask`.

    Each task gets its own backbone clone, so protocols cannot contaminate
    one another. Its trainable list alone says which backbone Params train:
    the biases for `bias_tuning`, all for `full_finetune`, else none.
    """
    bb = m.clone_backbone(backbone)
    if cfg.protocol == "lion":
        return m.build_prompt_model(bb, N_CLASSES, cfg.seed, kappa=cfg.kappa, solver=cfg.solver)
    trainable = {"head_tuning": [], "bias_tuning": [s.b for s in bb.stages],
                 "full_finetune": bb.params()}[cfg.protocol]
    return ClassifierTask(bb, m.make_head(bb.out_dim, N_CLASSES), trainable)


def held_out_accuracy(task, test_ds: Dataset) -> float:
    """Accuracy on the held-out split; a numeric failure is named as this phase."""
    with within("held-out predict"):
        preds = task.predict(test_ds.inputs)
    return float(np.mean(preds == test_ds.labels))


def run_protocol(cfg: RunConfig, backbone: Backbone, train_ds: Dataset,
                 test_ds: Dataset) -> ProtocolResult:
    """Tune under `cfg.protocol` and evaluate on the held-out split.

    Every protocol runs the one trainer, which partitions what the task
    names: the prompted protocol prunes its cells' W and U, and every other
    trainable scalar (the baselines' all) takes plain gradient descent.
    """
    start = time.perf_counter()
    task = make_task(cfg, backbone)
    log = robust_opt.train(task, (train_ds.inputs, train_ds.labels), cfg.optimizer, cfg.epochs)
    return ProtocolResult(
        accuracy=held_out_accuracy(task, test_ds),
        trainable_params=sum(p.size for p in task.trainable_params()),
        wall_time_s=time.perf_counter() - start, log=log, task=task)


# --- prompt-position experiment -----------------------------------------------------

@dataclass(frozen=True)
class Prop1Report:
    """Input-side vs output-side prompt capacity on a teacher-built task."""

    feasibility_gap: float      # loss at the closed-form W = W_hat A^{-1}
    input_side_loss: float
    output_side_loss: float     # B = -I, least-squares minimum over v
    control_loss: float         # B = +I, least-squares minimum over v
    asymmetry_confirmed: bool

    @property
    def verdict(self) -> str:
        return "asymmetry confirmed" if self.asymmetry_confirmed else "asymmetry NOT confirmed"


def _sq_loss(pred: np.ndarray, y: np.ndarray) -> float:
    """np.mean((pred - y) ** 2) of two vectors, bit for bit, without its overhead."""
    d = pred - y
    return float(np.add.reduce(d * d)) / len(d)


def _descend_w(x: np.ndarray, y: np.ndarray, v: np.ndarray, w0: np.ndarray,
               steps: int, lr0: float) -> tuple[np.ndarray, float]:
    """Squared-loss descent over W in v^T relu(W x) with halving line search."""
    w = w0.copy()
    lr = lr0
    pre = x @ w.T
    loss = _sq_loss(np.maximum(pre, 0.0) @ v, y)
    for _ in range(steps):
        feat = np.maximum(pre, 0.0)
        resid = (feat @ v - y) * (2.0 / len(y))
        grad_w = ((pre > 0.0) * (resid[:, None] * v)).T @ x
        while lr > 1e-12:
            w_try = w - lr * grad_w
            pre_try = x @ w_try.T
            loss_try = _sq_loss(np.maximum(pre_try, 0.0) @ v, y)
            if loss_try < loss:
                w, pre, loss = w_try, pre_try, loss_try
                lr *= 1.1
                break
            lr *= 0.5
        else:
            break                           # no descent direction left
        if loss <= 1e-14:
            break
    return w, loss


def verify_proposition1(seed: int) -> Prop1Report:
    """Contrast retraining the input weights vs the output weights.

    A teacher f(x) = v^T relu(W x) with strictly positive data, weights and
    targets fits its own task at exactly zero loss. Shifting inputs by an
    invertible near-identity A and retraining W (v frozen) can recover the
    fit — the closed form W_hat A^{-1} is checked first as an oracle, then
    descent from the pretrained W must get within 1e-3. Prompting the
    representation with B = -I instead (W frozen, v retrained) zeroes every
    ReLU feature, so predictions are identically 0 and the loss is pinned at
    mean(y^2) >= 1 whatever v is; B = +I is the do-nothing control. Both
    fit v by exact least squares, so each reports the minimum over v that
    the proposition is about, not where an iterative fit stopped. A is kept
    near the identity so the warm start has live ReLU units; a shift that
    silenced all of them would stall descent at zero gradient for the same
    reason the output side fails.
    """
    n, q, width = 40, 6, 8                  # samples, input dim, hidden units
    rng = substream(seed, "prop1")
    x = rng.uniform(0.8, 1.2, size=(n, q))
    w_hat = rng.uniform(0.3, 0.7, size=(width, q))
    v_hat = rng.uniform(0.3, 0.7, size=width)
    pre = x @ w_hat.T                       # strictly positive by construction
    if np.min(pre) <= 0.0:
        raise SetupError("teacher pre-activations are not strictly positive")
    y = np.maximum(pre, 0.0) @ v_hat
    if np.min(y) < 1.0:
        raise SetupError(f"targets not bounded below by 1 (min {np.min(y):.3f})")
    base_loss = _sq_loss(np.maximum(x @ w_hat.T, 0.0) @ v_hat, y)
    if base_loss >= 1e-6:
        raise SetupError(f"teacher does not fit its own task (loss {base_loss:.2e})")

    # input side: x -> A x, retrain W from the pretrained weights
    a = np.eye(q) + 0.15 / np.sqrt(q) * substream(seed, "prop1-shift").normal(size=(q, q))
    if float(np.linalg.svd(a, compute_uv=False)[-1]) < 0.4:
        raise SetupError("input shift degenerated towards singularity")
    x_pro = x @ a.T
    if np.min(x_pro @ w_hat.T) <= 0.0:
        raise SetupError("input shift silenced the warm start's ReLU units")
    w_closed = w_hat @ np.linalg.inv(a)
    feasibility_gap = _sq_loss(np.maximum(x_pro @ w_closed.T, 0.0) @ v_hat, y)
    if feasibility_gap > 1e-10:
        raise SetupError(f"closed-form solution misses (loss {feasibility_gap:.2e})")
    _, input_loss = _descend_w(x_pro, y, v_hat, w_hat, steps=4000, lr0=1e-2)

    # output side: representation prompt B on the pre-activations, retrain v
    def fit_v(feats: np.ndarray) -> float:
        return _sq_loss(feats @ np.linalg.lstsq(feats, y, rcond=None)[0], y)

    output_loss = fit_v(np.maximum(-pre, 0.0))     # B = -I
    control_loss = fit_v(np.maximum(pre, 0.0))     # B = +I
    return Prop1Report(
        feasibility_gap=feasibility_gap,
        input_side_loss=input_loss,
        output_side_loss=output_loss,
        control_loss=control_loss,
        asymmetry_confirmed=(input_loss <= 1e-3 and output_loss >= 0.5
                             and control_loss <= 1e-3),
    )


# --- gradient cross-check suite -------------------------------------------------------

@dataclass(frozen=True)
class GradCheckRow:
    case: int
    state_dim: int
    input_dim: int
    fd_rel_err: float
    unrolled_rel_err: float
    status: str                 # "ok" | "solver_failed" | "gradient_failed"


def _central_differences(block: PromptBlock, x: np.ndarray, y: np.ndarray, z_star: np.ndarray,
                         cfg: SolverConfig, step: float) -> np.ndarray:
    """Central differences of y . z* in every scalar of (W, U, b, x), in that order.

    W, U, b and x reach z* only through the pre-activation W z + c, with
    c = U x + b, so only c's h coordinates are differenced: the 2h perturbed
    fixed points, + step rows first, are one batch solve of a block (W, I, 0)
    whose input rows are the shifted c terms (c I^T + 0 = c exactly). The c
    gradient g_c maps exactly onto every Param and the input: g_W = g_c z*^T
    at the base fixed point `z_star`, g_U = g_c x^T, g_b = g_c and
    g_x = U^T g_c. Raises DivergenceError if any row stops short of tol.
    """
    u = block.U.value
    h, c = len(u), u @ x + block.b.value
    stack = PromptBlock("fd", block.W, Param("fd.U", np.eye(h)), Param("fd.b", np.zeros(h)),
                        block.kappa)
    rep = deq.solve_forward(stack, c + step * np.vstack([np.eye(h), -np.eye(h)]), cfg)
    plus, minus = np.split(rep.certified(cfg.tol), 2)
    g_c = (plus - minus) @ y / (2.0 * step)
    return np.concatenate([np.outer(g_c, z_star).ravel(), np.outer(g_c, x).ravel(), g_c,
                           g_c @ u])


def gradcheck_suite(cfg: RunConfig) -> list[GradCheckRow]:
    """Implicit vs finite-difference vs unrolled gradients on `cfg.cases` seeded cells.

    The implicit gradient is taken at the base solve's fixed point through
    `deq.solve_forward`, the alias of `deq.solve_forward_batch`, and
    `PromptBlock.vjp` on one-row batches: the functions training runs.
    Every solve runs at `cfg.solver`'s settings, its tol capped at
    `GRADCHECK_TOL`: a training-grade tol would drown the finite-difference
    signal. Each case's central differences are one more solve, of a block
    (W, I, 0) on 2h rows, mapped onto every Param through the base fixed
    point. Every cell is projected to `cfg.kappa`, and its unrolled reference runs
    the fewest steps K with K kappa^K / (1 - kappa) 100x under `UNROLLED_TOL` (227 at
    kappa 0.9): K steps drop the adjoint series past K (<= kappa^K / (1 - kappa)) and
    take Jacobians at iterates ~kappa^k off z*, about K times more. Solver
    non-convergence, in the base solve or in any row of the stack, is its own status
    so a hopeless tolerance setting is distinguishable from a wrong gradient.
    """
    solver = replace(cfg.solver, tol=min(cfg.tol, GRADCHECK_TOL))
    fd_tol, fd_step = 1e-4, 1e-5
    depth = next(k for k in itertools.count(1) if k > MAX_UNROLL_DEPTH
                 or k * cfg.kappa ** k <= (1.0 - cfg.kappa) * UNROLLED_TOL / 100.0)
    if depth > MAX_UNROLL_DEPTH:
        raise ConfigError(f"invalid value for 'kappa': gradcheck's unrolled reference "
                          f"would need more than {MAX_UNROLL_DEPTH:,} steps")

    # the flat (W, U, b, x) gradient on the block; x enters only via U x + b, so g_x = U^T g_b
    def pulled(block: PromptBlock) -> np.ndarray:
        return np.concatenate([p.grad.reshape(-1) for p in block.params()]
                              + [block.b.grad @ block.U.value])

    rows = []
    for case in range(cfg.cases):
        rng = substream(cfg.seed, "gradcheck", case)
        h = int(rng.integers(4, 17))
        d = int(rng.integers(2, 17))
        block = PromptBlock("case", Param("W", rng.normal(size=(h, h))),
                            Param("U", rng.normal(size=(h, d))),
                            Param("b", rng.normal(size=h) * 0.1), cfg.kappa)
        block.renormalize()
        x = rng.normal(size=d)
        y = rng.normal(size=h)
        try:
            z_star = deq.solve_forward(block, x[None, :], solver).certified(solver.tol)
            fd = _central_differences(block, x, y, z_star[0], solver, fd_step)
        except DivergenceError:
            rows.append(GradCheckRow(case, h, d, float("nan"), float("nan"),
                                     "solver_failed"))
            continue
        block.vjp(x[None, :], z_star, y[None, :])
        analytic = pulled(block)
        fd_err = rel_error(analytic, fd)

        for p in block.params():
            p.zero_grad()
        deq.unrolled_vjp(block, x, y, n_iters=depth)
        unrolled_err = rel_error(analytic, pulled(block))
        status = "ok" if fd_err <= fd_tol and unrolled_err <= UNROLLED_TOL else "gradient_failed"
        rows.append(GradCheckRow(case, h, d, fd_err, unrolled_err, status))
    return rows
