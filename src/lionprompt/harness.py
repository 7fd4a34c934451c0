"""Desk-scale experiment suite.

Synthetic source/target task pairs with controlled domain shift, backbone
pretraining, the task factory and run of the tuning protocols (head / bias
/ full / prompted), long-tail and few-shot resamplers, the input-vs-output
prompt-position experiment, and the gradient cross-check suite used by the
CLI.

Everything here is a pure function of (spec, seed): all randomness flows
through named substreams, so any artifact can be regenerated bit-identically
from its parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import deq, model as m, robust_opt
from .config import RunConfig
from .deq import DeqCell, SolverConfig
from .errors import SetupError, ShapeMismatchError
from .model import Backbone, BackboneClassifier, PromptModel
from .numerics import Tensor, rel_error
from .rng import substream

# Epochs without a loss improvement after which a protocol run stops early.
PATIENCE = 20

# Which backbone parameters each baseline protocol trains besides its head.
_BACKBONE_MODES = {"head_tuning": "none", "bias_tuning": "bias", "full_finetune": "all"}


# --- datasets ---------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    inputs: Tensor          # N x d
    labels: np.ndarray      # int class indices, length N
    n_classes: int
    split: str              # "train" | "test"
    seed: int

    def __post_init__(self):
        if self.inputs.rank != 2 or len(self.labels) != self.inputs.shape[0]:
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


def _split_counts(n: int, c: int) -> np.ndarray:
    """Balanced per-class counts; remainder spread over the first classes."""
    counts = np.full(c, n // c)
    counts[: n % c] += 1
    return counts


def make_blobs(n_classes: int, d: int, n: int, seed: int, split: str = "train",
               separation: float = 6.0) -> Dataset:
    """Gaussian clusters (sigma = 1) with pairwise mean distance = separation.

    Class means sit on the first n_classes axes at radius separation/sqrt(2),
    so every pair of means is exactly `separation` apart. The means depend
    only on the seed — train and test splits share them and differ in noise.
    """
    if n_classes < 2 or n_classes > d:
        raise ValueError(f"need 2 <= n_classes <= d, got C={n_classes}, d={d}")
    if n < n_classes * 10:
        raise ValueError(f"need at least {n_classes * 10} samples, got {n}")
    means = np.zeros((n_classes, d))
    means[np.arange(n_classes), np.arange(n_classes)] = separation / np.sqrt(2.0)
    counts = _split_counts(n, n_classes)
    labels = np.repeat(np.arange(n_classes), counts)
    noise_rng = substream(seed, "blob-noise", split)
    inputs = means[labels] + noise_rng.normal(size=(n, d))
    order = noise_rng.permutation(n)
    return Dataset(Tensor(inputs[order]), labels[order], n_classes, split, seed)


def make_glyphs(n_classes: int, n: int, seed: int, split: str = "train",
                flip_prob: float = 0.1) -> Dataset:
    """Procedural 8x8 binary patterns per class, flattened to d = 64.

    Each class owns a fixed random mask (seed-determined, split-independent);
    samples are that mask with independent pixel flips at `flip_prob`.
    """
    if n_classes < 2:
        raise ValueError(f"need n_classes >= 2, got {n_classes}")
    if n < n_classes * 10:
        raise ValueError(f"need at least {n_classes * 10} samples, got {n}")
    base_rng = substream(seed, "glyph-base")
    bases = (base_rng.random(size=(n_classes, 64)) < 0.5).astype(np.float64)
    counts = _split_counts(n, n_classes)
    labels = np.repeat(np.arange(n_classes), counts)
    noise_rng = substream(seed, "glyph-noise", split)
    flips = noise_rng.random(size=(n, 64)) < flip_prob
    inputs = np.abs(bases[labels] - flips.astype(np.float64))
    order = noise_rng.permutation(n)
    return Dataset(Tensor(inputs[order]), labels[order], n_classes, split, seed)


# --- domain shift -------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSpec:
    kind: str                       # invertible_linear | rotation | noise
    A: Tensor | None = None         # for the two linear kinds
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("invertible_linear", "rotation", "noise"):
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if self.kind in ("invertible_linear", "rotation"):
            if self.A is None or self.A.rank != 2 or self.A.shape[0] != self.A.shape[1]:
                raise ValueError(f"{self.kind} shift needs a square matrix")
            if abs(float(np.linalg.det(self.A.array))) <= 1e-6:
                raise ValueError("shift matrix is numerically singular")


def _random_orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def make_shift(kind: str, d: int, seed: int, noise_sigma: float = 0.5,
               sv_range: tuple[float, float] = (0.8, 2.0)) -> ShiftSpec:
    """Seed-deterministic shift with controlled conditioning.

    invertible_linear builds A = Q1 diag(sv) Q2^T with singular values spread
    linearly over sv_range — invertible by construction, condition number
    sv_max/sv_min. rotation is a single orthogonal factor (determinant +1).
    """
    rng = substream(seed, "shift", kind)
    if kind == "invertible_linear":
        sv = np.linspace(sv_range[0], sv_range[1], d)
        a = _random_orthogonal(rng, d) @ np.diag(sv) @ _random_orthogonal(rng, d).T
        return ShiftSpec(kind=kind, A=Tensor(a))
    if kind == "rotation":
        q = _random_orthogonal(rng, d)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return ShiftSpec(kind=kind, A=Tensor(q))
    if kind == "noise":
        return ShiftSpec(kind=kind, noise_sigma=noise_sigma)
    raise ValueError(f"unknown shift kind {kind!r}")


def apply_shift(ds: Dataset, spec: ShiftSpec) -> Dataset:
    """Transform inputs (x -> A x, or add noise); labels are reused as-is."""
    x = ds.inputs.array
    if spec.kind in ("invertible_linear", "rotation"):
        shifted = x @ spec.A.array.T
    else:
        rng = substream(ds.seed, "shift-noise", ds.split)
        shifted = x + spec.noise_sigma * rng.normal(size=x.shape)
    return replace(ds, inputs=Tensor(shifted))


# --- resamplers ----------------------------------------------------------------

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
    keep_idx = []
    for cls in range(c):
        frac = 1.0 if c == 1 else cls / (c - 1)
        target = int(round(n_max * imbalance_ratio ** (-frac)))
        if target == 0:
            raise ValueError(
                f"imbalance ratio {imbalance_ratio} empties class {cls}")
        if target > counts[cls]:
            target = int(counts[cls])
        members = np.flatnonzero(ds.labels == cls)
        rng = substream(ds.seed, "longtail", cls)
        keep_idx.append(rng.choice(members, size=target, replace=False))
    idx = np.sort(np.concatenate(keep_idx))
    return replace(ds, inputs=Tensor(ds.inputs.array[idx]), labels=ds.labels[idx])


def resample_fewshot(ds: Dataset, shots: int) -> Dataset:
    """Exactly `shots` seed-chosen samples per class."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keep_idx = []
    for cls in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == cls)
        if len(members) < shots:
            raise ValueError(
                f"class {cls} has {len(members)} samples, fewer than {shots} shots")
        rng = substream(ds.seed, "fewshot", cls)
        keep_idx.append(rng.choice(members, size=shots, replace=False))
    idx = np.sort(np.concatenate(keep_idx))
    return replace(ds, inputs=Tensor(ds.inputs.array[idx]), labels=ds.labels[idx])


# --- tasks and pretraining ------------------------------------------------------

class ClassifierTask:
    """Adapter putting a BackboneClassifier under the shared trainer."""

    def __init__(self, clf: BackboneClassifier, mode: str):
        self.clf = clf
        self.mode = mode  # "none" | "bias" | "all"

    def trainable_params(self):
        params = [self.clf.head.w, self.clf.head.b]
        if self.mode == "bias":
            params = [s.b for s in self.clf.backbone.stages] + params
        elif self.mode == "all":
            params = self.clf.backbone.params() + params
        return params

    def named_params(self):
        """Everything needed to reconstruct the classifier, trained or not."""
        return self.clf.backbone.params() + [self.clf.head.w, self.clf.head.b]

    def loss_and_grads(self, x, y):
        return self.clf.loss_and_grads(x, y, train_backbone=self.mode)

    def predict(self, x):
        return self.clf.predict(x)


class LionTask:
    """Adapter putting a PromptModel under the shared trainer.

    The backbone is frozen and the trainer feeds the same rows every epoch,
    so `prepare` computes F(x) once per training run, and `loss_and_grads`
    and `predict` reuse it whenever they are handed those same rows.
    """

    def __init__(self, pm: PromptModel):
        self.pm = pm
        self._features: tuple[np.ndarray, np.ndarray] | None = None  # (x, F(x))

    def prepare(self, x):
        self._features = (x, m.backbone_forward(self.pm.backbone, x)[0])

    def trainable_params(self):
        return self.pm.trainable_params()

    def named_params(self):
        """Everything needed to reconstruct the model, frozen parts included."""
        return self.pm.backbone.params() + self.pm.trainable_params()

    def _cached_features(self, x):
        if self._features is not None and self._features[0] is x:
            return self._features[1]
        return None

    def loss_and_grads(self, x, y):
        return m.loss_and_grads(self.pm, x, y, f_x=self._cached_features(x))

    def predict(self, x):
        return m.predict(self.pm, x, f_x=self._cached_features(x))

    def post_step(self):
        self.pm.renormalize()

    def metrics(self):
        a1, _ = self.pm.gate1.coeffs()
        a2, _ = self.pm.gate2.coeffs()
        return {"alpha1": a1, "alpha2": a2}


def pretrain_backbone(source_train: Dataset, hidden: int, h: int, seed: int,
                      epochs: int = 300, eta: float = 0.3,
                      min_accuracy: float = 0.95) -> tuple[Backbone, float]:
    """Fit a fresh backbone (plus throwaway head) on the source task.

    Returns the frozen backbone and the reached source train accuracy;
    refuses to hand back a feature extractor that never learned the task.
    """
    backbone = m.make_backbone(source_train.d, hidden, h, seed, frozen=False)
    clf = BackboneClassifier(backbone=backbone,
                             head=m.make_head(h, source_train.n_classes, "pretrain_head"))
    task = ClassifierTask(clf, "all")
    log = robust_opt.train_plain(task, source_train, robust_opt.OptState(eta=eta),
                                 epochs)
    accuracy = log.final_accuracy
    if accuracy < min_accuracy:
        raise SetupError(
            f"backbone pretraining reached {accuracy:.3f} < {min_accuracy} train accuracy")
    backbone.frozen = True
    return backbone, accuracy


# --- protocol runs ------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolResult:
    protocol: str
    accuracy: float            # held-out split only
    train_accuracy: float
    trainable_params: int
    epochs_run: int
    wall_time_s: float
    log: robust_opt.TrainLog
    task: object               # the trained adapter, for checkpointing


def make_task(cfg: RunConfig, backbone: Backbone, n_classes: int):
    """Fresh, untrained task for `cfg.protocol` around a clone of the backbone.

    Each task gets its own backbone clone, so protocols cannot contaminate
    one another; only `bias_tuning` and `full_finetune` unfreeze theirs.
    """
    if cfg.protocol == "lion":
        pm = m.build_prompt_model(m.clone_backbone(backbone, frozen=True), n_classes,
                                  cfg.seed, layers=cfg.layers, kappa=cfg.kappa,
                                  solver=cfg.solver)
        return LionTask(pm)
    mode = _BACKBONE_MODES[cfg.protocol]
    bb = m.clone_backbone(backbone, frozen=(mode == "none"))
    return ClassifierTask(BackboneClassifier(backbone=bb,
                                             head=m.make_head(bb.out_dim, n_classes)), mode)


def run_protocol(cfg: RunConfig, backbone: Backbone, train_ds: Dataset,
                 test_ds: Dataset) -> ProtocolResult:
    """Tune under `cfg.protocol` and evaluate on the held-out split.

    Baselines (head / bias / full) train with plain gradient descent; the
    prompted protocol trains its Θ_t with the partitioned optimizer. Both
    stop early after `PATIENCE` epochs without improvement.
    """
    start = time.perf_counter()
    task = make_task(cfg, backbone, train_ds.n_classes)
    trainer = robust_opt.train if cfg.protocol == "lion" else robust_opt.train_plain
    log = trainer(task, train_ds, robust_opt.OptState(eta=cfg.eta, tau=cfg.tau),
                  cfg.epochs, patience=PATIENCE)
    preds = task.predict(test_ds.inputs.array)
    accuracy = float(np.mean(preds == test_ds.labels))
    return ProtocolResult(
        protocol=cfg.protocol,
        accuracy=accuracy,
        train_accuracy=log.final_accuracy,
        trainable_params=sum(p.size for p in task.trainable_params()),
        epochs_run=len(log.losses),
        wall_time_s=time.perf_counter() - start,
        log=log,
        task=task,
    )


# --- prompt-position experiment -----------------------------------------------------

@dataclass(frozen=True)
class Prop1Report:
    """Input-side vs output-side prompt capacity on a teacher-built task."""

    feasibility_gap: float      # loss at the closed-form W = W_hat A^{-1}
    input_side_loss: float
    output_side_loss: float     # B = -I, best over restarts
    control_loss: float         # B = +I, best over restarts
    restarts: int
    asymmetry_confirmed: bool

    @property
    def verdict(self) -> str:
        return "asymmetry confirmed" if self.asymmetry_confirmed else "asymmetry NOT confirmed"


def _sq_loss(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((pred - y) ** 2))


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


def _fit_v(feats: np.ndarray, y: np.ndarray, v0: np.ndarray, steps: int) -> float:
    """Convex least squares over v by gradient descent at the optimal rate."""
    n = len(y)
    gram = feats.T @ feats * (2.0 / n)
    eigs = np.linalg.eigvalsh(gram)
    lam_max = float(eigs[-1])
    if lam_max <= 0.0:         # features identically zero: v cannot matter
        return _sq_loss(np.zeros(n), y)
    lr = 1.0 / lam_max
    v = v0.copy()
    for _ in range(steps):
        resid = feats @ v - y
        v = v - lr * (2.0 / n) * (feats.T @ resid)
    return _sq_loss(feats @ v, y)


def verify_proposition1(seed: int, restarts: int = 10, n: int = 40,
                        q: int = 6, width: int = 8) -> Prop1Report:
    """Contrast retraining the input weights vs the output weights.

    A teacher f(x) = v^T relu(W x) with strictly positive data, weights and
    targets fits its own task at exactly zero loss. Shifting inputs by an
    invertible near-identity A and retraining W (v frozen) can recover the
    fit — the closed form W_hat A^{-1} is checked first as an oracle, then
    descent from the pretrained W must get within 1e-3. Prompting the
    representation with B = -I instead (W frozen, v retrained) zeroes every
    ReLU feature, so predictions are identically 0 and the loss is pinned at
    mean(y^2) >= 1 no matter how v is trained or restarted; B = +I is the
    do-nothing control. A is kept near the identity so the warm start has
    live ReLU units; a shift that silenced all of them would stall descent
    at zero gradient for the same reason the output side fails.
    """
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
    out_losses, ctl_losses = [], []
    for r in range(restarts):
        v0 = substream(seed, "prop1-restart", r).normal(size=width) * 0.1
        flipped = np.maximum(-pre, 0.0)     # B = -I
        out_losses.append(_fit_v(flipped, y, v0, steps=20000))
        ctl_losses.append(_fit_v(np.maximum(pre, 0.0), y, v0, steps=20000))
    output_loss = float(min(out_losses))
    control_loss = float(min(ctl_losses))
    return Prop1Report(
        feasibility_gap=feasibility_gap,
        input_side_loss=input_loss,
        output_side_loss=output_loss,
        control_loss=control_loss,
        restarts=restarts,
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


def _central_differences(cell: DeqCell, x: Tensor, y: Tensor, cfg: SolverConfig,
                         step: float) -> np.ndarray:
    """Central differences of y . z* in every scalar of (W, U, b, x), in that order.

    All 2 (h^2 + hd + h + d) perturbed fixed points are solved as two row
    stacks, the + step rows first and the - step rows second. Perturbing a
    scalar of U, b or x only shifts that row's input term c = U x + b, so
    those rows share the cell's weight; only the W rows get one weight each.
    Raises DivergenceError if any row stops short of tol.
    """
    wa, ua, xa = cell.W.array, cell.U.array, x.array
    h = cell.state_dim
    c = ua @ xa + cell.b.array
    # d c / d U_ij = x_j e_i, d c / d b_i = e_i, d c / d x_j = U[:, j]
    shifts = np.vstack([np.kron(np.eye(h), xa[:, None]), np.eye(h), ua.T])
    ws = np.broadcast_to(wa.reshape(-1), (2, h * h, h * h)).copy()
    diag = np.arange(h * h)
    ws[0, diag, diag] += step
    ws[1, diag, diag] -= step
    stacks = ((ws.reshape(-1, h, h), np.broadcast_to(c, (2 * h * h, h))),
              (wa, np.concatenate([c + step * shifts, c - step * shifts])))
    fd = []
    for w, c_rows in stacks:
        rep = deq.solve_forward_stack(w, c_rows, cell.activation, cfg)
        if not rep.converged:
            raise deq.DivergenceError("finite-difference solves stopped short of tol",
                                      residual=rep.residual)
        plus, minus = np.split(rep.z_star.array, 2)
        fd.append((plus - minus) @ y.array / (2.0 * step))
    return np.concatenate(fd)


def gradcheck_suite(n_cases: int = 20, seed: int = 0,
                    solver: SolverConfig | None = None,
                    fd_tol: float = 1e-4, unrolled_tol: float = 1e-5,
                    fd_step: float = 1e-5) -> list[GradCheckRow]:
    """Implicit vs finite-difference vs unrolled gradients on seeded cells.

    The implicit gradient is taken at the base solve's fixed point through
    `deq.solve_forward` and `deq.deq_vjp`, the n = 1 case of the batch code
    that training runs. The central differences of each case are one
    `deq.solve_forward_stack` call for the W perturbations (a weight per
    row) and one for the rest (the shared-weight product that training
    runs), on the same worst-row-certified driver. Solver non-convergence,
    in the base solve or in any row of a stack, is reported as its own
    status so a hopeless tolerance setting is distinguishable from a wrong
    gradient.
    """
    cfg = solver or SolverConfig(tol=1e-13)
    rows = []
    for case in range(n_cases):
        rng = substream(seed, "gradcheck", case)
        h = int(rng.integers(4, 17))
        d = int(rng.integers(2, 17))
        cell = deq.spectral_normalize(DeqCell(
            W=Tensor(rng.normal(size=(h, h))),
            U=Tensor(rng.normal(size=(h, d))),
            b=Tensor(rng.normal(size=h) * 0.1)))
        x = Tensor(rng.normal(size=d))
        y = Tensor(rng.normal(size=h))
        try:
            base = deq.solve_forward(cell, x, cfg)
            if not base.converged:
                raise deq.DivergenceError("base solve stopped short of tol",
                                          residual=base.residual)
            fd = _central_differences(cell, x, y, cfg, fd_step)
        except deq.DivergenceError:
            rows.append(GradCheckRow(case, h, d, float("nan"), float("nan"),
                                     "solver_failed"))
            continue
        grad_x, grads = deq.deq_vjp(cell, base.z_star, x, y)
        analytic = np.concatenate([grads.W.array.reshape(-1), grads.U.array.reshape(-1),
                                   grads.b.array, grad_x.array])
        fd_err = rel_error(analytic, fd)

        gx_u, g_u = deq.unrolled_vjp(cell, x, y, n_iters=500)
        unrolled = np.concatenate([g_u.W.array.reshape(-1), g_u.U.array.reshape(-1),
                                   g_u.b.array, gx_u.array])
        unrolled_err = rel_error(analytic, unrolled)
        status = "ok" if (fd_err <= fd_tol and unrolled_err <= unrolled_tol) \
            else "gradient_failed"
        rows.append(GradCheckRow(case, h, d, fd_err, unrolled_err, status))
    return rows
