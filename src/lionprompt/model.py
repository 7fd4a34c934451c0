"""Prompted model: frozen backbone, two equilibrium prompt blocks, gates, head.

The forward pass follows the two-pass blending scheme literally:

    x_tilde = alpha1 * x + beta1 * P1(x)
    z       = F(x)                      # backbone on the raw input
    z_tilde = alpha2 * F(x_tilde) + beta2 * proj(P2(z))
    logits  = head(z_tilde)

so the backbone runs twice per example (once on x for the second prompt's
input, once on x_tilde for the first blend term). F(x) does not depend on
any trainable parameter, so a trainer that feeds the same rows every epoch
computes it once and hands it to `loss_and_grads` and `predict` as `f_x`.

Only the prompt cells, the projection, the head and the four gate scalars
are trainable; backbone gradients are never even computed here. The
backward pass is a hand-written chain of the per-op VJP rules plus the
implicit cell backward from `deq`. Every forward solve must converge: a
prompt block raises `DivergenceError` rather than hand a point that is not
a fixed point to the implicit backward or to a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import deq
from .deq import DeqCell, SolverConfig
from .errors import DivergenceError, ShapeMismatchError, StateError
from .numerics import Param, Tensor, batch_cross_entropy
from .rng import substream

# Smallest mixing weight a gate can produce. Keeping alpha inside
# [2^-53, 1 - 2^-53] makes alpha + (1 - alpha) round to exactly 1.0 while
# both coefficients stay strictly inside (0, 1) even for wildly saturated
# gate scalars, where the unclamped softmax would round to 0 or 1.
GATE_EPS = 2.0 ** -53

ACT_KINDS = ("tanh", "identity", "relu")


def _stage_act(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(a)
    if kind == "relu":
        return np.maximum(a, 0.0)
    return a


def _stage_act_deriv(out: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the stage activation, read off the stage output."""
    if kind == "tanh":
        return 1.0 - out * out
    if kind == "relu":
        return (out > 0.0).astype(np.float64)
    return np.ones_like(out)


@dataclass
class AffineStage:
    """One affine layer y = act(W x + b) with explicit parameters."""

    w: Param
    b: Param
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACT_KINDS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.value.rank != 2 or self.b.value.shape != (self.w.value.shape[0],):
            raise ShapeMismatchError(
                f"stage shapes disagree: W {self.w.value.shape}, b {self.b.value.shape}")

    @property
    def out_dim(self) -> int:
        return self.w.value.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.value.shape[1]


@dataclass
class Backbone:
    """Feature extractor as a stack of affine stages; frozen by default."""

    stages: list[AffineStage]
    frozen: bool = True

    @property
    def in_dim(self) -> int:
        return self.stages[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.stages[-1].out_dim

    def params(self) -> list[Param]:
        out = []
        for s in self.stages:
            out.extend([s.w, s.b])
        return out


def backbone_forward(backbone: Backbone, x_rows: np.ndarray) -> tuple[np.ndarray, list]:
    """Run all stages on a batch; the cache holds per-stage (input, output)."""
    cache = []
    h = np.asarray(x_rows, dtype=np.float64)
    for s in backbone.stages:
        out = _stage_act(h @ s.w.value.array.T + s.b.value.array, s.activation)
        cache.append((h, out))
        h = out
    return h, cache


def backbone_input_vjp(backbone: Backbone, cache: list, g_out: np.ndarray) -> np.ndarray:
    """Pull a cotangent on the output back to the input; parameters untouched."""
    g = g_out
    for s, (_, out) in zip(reversed(backbone.stages), reversed(cache)):
        t = _stage_act_deriv(out, s.activation) * g
        g = t @ s.w.value.array
    return g


def backbone_param_vjp(backbone: Backbone, cache: list, g_out: np.ndarray,
                       bias_only: bool = False) -> np.ndarray:
    """Accumulate parameter gradients for an unfrozen backbone; returns g_in."""
    if backbone.frozen:
        raise StateError("backbone is frozen; parameter gradients are off-limits")
    g = g_out
    for s, (h_in, out) in zip(reversed(backbone.stages), reversed(cache)):
        t = _stage_act_deriv(out, s.activation) * g
        if not bias_only:
            s.w.add_grad(t.T @ h_in)
        s.b.add_grad(np.sum(t, axis=0))
        g = t @ s.w.value.array
    return g


# --- gates ------------------------------------------------------------------

@dataclass
class GatePair:
    """Two trainable scalars turned into a convex (alpha, beta) pair."""

    g_alpha: Param
    g_beta: Param

    def coeffs(self) -> tuple[float, float]:
        return gate_coeffs(self.g_alpha.value.item(), self.g_beta.value.item())


def gate_coeffs(g_alpha: float, g_beta: float) -> tuple[float, float]:
    """Two-way softmax with max-subtraction, clamped to the open simplex.

    Returns (alpha, beta) with alpha + beta == 1.0 exactly and both strictly
    inside (0, 1) for every finite pair of gate scalars.
    """
    m = max(g_alpha, g_beta)
    ea = math.exp(g_alpha - m)
    eb = math.exp(g_beta - m)
    alpha = ea / (ea + eb)
    alpha = min(max(alpha, GATE_EPS), 1.0 - GATE_EPS)
    return alpha, 1.0 - alpha


def gate_vjp(alpha: float, beta: float, d_alpha: float, d_beta: float) -> tuple[float, float]:
    """Backward rule of the two-way softmax: the 2x2 Jacobian applied to
    (d_alpha, d_beta); returns (d_g_alpha, d_g_beta), an exactly opposite pair."""
    g = alpha * beta * (d_alpha - d_beta)
    return g, -g


# --- prompt blocks -----------------------------------------------------------

@dataclass
class PromptBlock:
    """A chain of equilibrium cells solved sequentially (depth >= 1).

    Each cell's parameters live in `Param`s; the `DeqCell` views handed to
    the solver are rebuilt from the current values on every call, so an
    optimizer step immediately affects the next solve.
    """

    name: str
    cell_params: list[tuple[Param, Param, Param]]  # (W, U, b) per cell
    kappa: float = 0.9
    activation: str = "tanh"

    def cells(self) -> list[DeqCell]:
        return [DeqCell(W=w.value, U=u.value, b=b.value,
                        kappa=self.kappa, activation=self.activation)
                for w, u, b in self.cell_params]

    def params(self) -> list[Param]:
        out = []
        for w, u, b in self.cell_params:
            out.extend([w, u, b])
        return out

    def renormalize(self) -> None:
        """Project every cell's state weight back onto the kappa-ball."""
        for w, _, _ in self.cell_params:
            cell_w = w.value
            sigma = deq.estimate_spectral_norm(cell_w)
            if sigma > self.kappa:
                w.value = Tensor(cell_w.array * (self.kappa / sigma))

    def solve(self, x_rows: np.ndarray, cfg: SolverConfig) -> list[np.ndarray]:
        """Solve the chain on a batch; returns [input, z1*, ..., zk*].

        Raises `DivergenceError`, naming the block and cell, when a solve
        stops short of the tolerance.
        """
        states = [np.asarray(x_rows, dtype=np.float64)]
        for idx, cell in enumerate(self.cells()):
            rep = deq.solve_forward_batch(cell, states[-1], cfg)
            if not rep.converged:
                raise DivergenceError(
                    f"block {self.name} cell {idx}: forward solve stopped at residual "
                    f"{rep.residual:.3e} after {rep.iterations} evaluations "
                    f"(tol {cfg.tol:.1e})", residual=rep.residual)
            states.append(rep.z_star.array)
        return states

    def vjp(self, states: list[np.ndarray], y_rows: np.ndarray) -> np.ndarray:
        """Chain the implicit backward through all cells, newest first.

        Accumulates parameter gradients into the block's Params and returns
        the gradient w.r.t. the block input.
        """
        g = y_rows
        cells = self.cells()
        for idx in range(len(cells) - 1, -1, -1):
            g, cg = deq.deq_vjp_batch(cells[idx], states[idx + 1], states[idx], g)
            w, u, b = self.cell_params[idx]
            w.add_grad(cg.W)
            u.add_grad(cg.U)
            b.add_grad(cg.b)
        return g


# --- the full model -----------------------------------------------------------

@dataclass
class PromptModel:
    backbone: Backbone
    p1: PromptBlock
    p2: PromptBlock
    proj: AffineStage
    head: AffineStage
    gate1: GatePair
    gate2: GatePair
    solver: SolverConfig = field(default_factory=SolverConfig)

    @property
    def in_dim(self) -> int:
        return self.backbone.in_dim

    @property
    def n_classes(self) -> int:
        return self.head.out_dim

    def trainable_params(self) -> list[Param]:
        """The full trainable set, in a stable documented order."""
        out = self.p1.params() + self.p2.params()
        out.extend([self.proj.w, self.proj.b, self.head.w, self.head.b,
                    self.gate1.g_alpha, self.gate1.g_beta,
                    self.gate2.g_alpha, self.gate2.g_beta])
        return out

    def zero_grads(self) -> None:
        for p in self.trainable_params():
            p.zero_grad()

    def renormalize(self) -> None:
        self.p1.renormalize()
        self.p2.renormalize()


def make_backbone(d: int, hidden: int, h: int, seed: int, frozen: bool = False) -> Backbone:
    """Fresh 2-layer tanh MLP d -> hidden -> h with small-uniform weights."""
    rng = substream(seed, "backbone-init")

    def uniform(shape, fan_in):
        lim = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-lim, lim, size=shape))

    stages = [AffineStage(Param("backbone.0.W", uniform((hidden, d), d)),
                          Param("backbone.0.b", Tensor(np.zeros(hidden))), "tanh"),
              AffineStage(Param("backbone.1.W", uniform((h, hidden), hidden)),
                          Param("backbone.1.b", Tensor(np.zeros(h))), "tanh")]
    return Backbone(stages=stages, frozen=frozen)


def clone_backbone(backbone: Backbone, frozen: bool) -> Backbone:
    """Independent Param objects over the same (immutable) value tensors.

    Protocol runs that train the backbone mutate their own clone, leaving
    the pretrained original untouched for the next protocol.
    """
    stages = [AffineStage(Param(s.w.name, s.w.value), Param(s.b.name, s.b.value),
                          s.activation) for s in backbone.stages]
    return Backbone(stages=stages, frozen=frozen)


def build_prompt_model(backbone: Backbone, n_classes: int, seed: int,
                       layers: int = 1, kappa: float = 0.9,
                       solver: SolverConfig | None = None) -> PromptModel:
    """Fresh trainable parts wrapped around an existing (frozen) backbone.

    Head starts at zero (logits are pure bias until the first step); cells
    and projection start small-uniform at +-1/sqrt(fan_in); gates start at
    (0, 0), i.e. an even 0.5/0.5 blend.
    """
    d, h = backbone.in_dim, backbone.out_dim
    rng = substream(seed, "prompt-init")

    def uniform(shape, fan_in):
        lim = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-lim, lim, size=shape))

    def block(name: str, dim: int) -> PromptBlock:
        cells = []
        for k in range(layers):
            cells.append((Param(f"{name}.{k}.W", uniform((dim, dim), dim)),
                          Param(f"{name}.{k}.U", uniform((dim, dim), dim)),
                          Param(f"{name}.{k}.b", Tensor(np.zeros(dim)))))
        blk = PromptBlock(name=name, cell_params=cells, kappa=kappa)
        blk.renormalize()
        return blk

    return PromptModel(
        backbone=backbone,
        p1=block("p1", d),
        p2=block("p2", h),
        proj=AffineStage(Param("proj.W", uniform((h, h), h)),
                         Param("proj.b", Tensor(np.zeros(h)))),
        head=make_head(h, n_classes),
        gate1=GatePair(Param("gate1.a", Tensor(0.0)), Param("gate1.b", Tensor(0.0))),
        gate2=GatePair(Param("gate2.a", Tensor(0.0)), Param("gate2.b", Tensor(0.0))),
        solver=solver or SolverConfig(),
    )


def init_prompt_model(d: int, h: int, hidden: int, n_classes: int, seed: int,
                      layers: int = 1, kappa: float = 0.9,
                      solver: SolverConfig | None = None) -> PromptModel:
    """Fresh trainable parts around a fresh (untrained, frozen) backbone."""
    backbone = make_backbone(d, hidden, h, seed, frozen=True)
    return build_prompt_model(backbone, n_classes, seed, layers=layers,
                              kappa=kappa, solver=solver)


def blend_input(model: PromptModel, x_rows: np.ndarray) -> np.ndarray:
    """x_tilde = alpha1 * x + beta1 * P1(x) on a batch of rows."""
    a1, b1 = model.gate1.coeffs()
    z1 = model.p1.solve(x_rows, model.solver)[-1]
    return a1 * np.asarray(x_rows, dtype=np.float64) + b1 * z1


def _features(model: PromptModel, x_rows: np.ndarray, f_x: np.ndarray | None) -> np.ndarray:
    """F(x_rows), computed unless the caller already holds it."""
    if f_x is None:
        f_x, _ = backbone_forward(model.backbone, x_rows)
    elif f_x.shape != (x_rows.shape[0], model.backbone.out_dim):
        raise ShapeMismatchError(
            f"f_x shape {f_x.shape} != ({x_rows.shape[0]}, {model.backbone.out_dim})")
    return f_x


def blend_repr(model: PromptModel, x_rows: np.ndarray,
               f_x: np.ndarray | None = None) -> np.ndarray:
    """z_tilde = alpha2 * F(x_tilde) + beta2 * proj(P2(F(x))) on a batch."""
    a2, b2 = model.gate2.coeffs()
    xt = blend_input(model, x_rows)
    f_xt, _ = backbone_forward(model.backbone, xt)
    z2 = model.p2.solve(_features(model, x_rows, f_x), model.solver)[-1]
    r = z2 @ model.proj.w.value.array.T + model.proj.b.value.array
    return a2 * f_xt + b2 * r


def forward_full(model: PromptModel, x_rows: np.ndarray,
                 f_x: np.ndarray | None = None) -> np.ndarray:
    """Logits for a batch of rows (n x C); `f_x` as in `loss_and_grads`."""
    zt = blend_repr(model, x_rows, f_x)
    return zt @ model.head.w.value.array.T + model.head.b.value.array


def loss(model: PromptModel, x_rows: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the batch under the current parameters."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.shape[0] == 0:
        raise ValueError("empty batch")
    value, _ = batch_cross_entropy(forward_full(model, x_rows), np.asarray(labels))
    return value


def loss_and_grads(model: PromptModel, x_rows: np.ndarray, labels: np.ndarray,
                   f_x: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus gradients accumulated into every Θ_t Param.

    Returns (loss, logits), the logits being those the loss was taken on.
    `f_x` is F(x_rows), the frozen backbone on the raw rows; it is computed
    here unless the caller passes it. One hand-written reverse sweep:
    head -> gate2/proj/P2 -> backbone input VJP (parameters skipped: the
    backbone is frozen) -> gate1/P1.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    labels = np.asarray(labels)
    if x_rows.shape[0] == 0:
        raise ValueError("empty batch")
    cfg = model.solver
    a1, b1 = model.gate1.coeffs()
    a2, b2 = model.gate2.coeffs()

    # forward, keeping everything the backward sweep needs
    p1_states = model.p1.solve(x_rows, cfg)
    z1 = p1_states[-1]
    xt = a1 * x_rows + b1 * z1
    f_xt, cache_t = backbone_forward(model.backbone, xt)
    p2_states = model.p2.solve(_features(model, x_rows, f_x), cfg)
    z2 = p2_states[-1]
    r = z2 @ model.proj.w.value.array.T + model.proj.b.value.array
    zt = a2 * f_xt + b2 * r
    logits = zt @ model.head.w.value.array.T + model.head.b.value.array
    value, g_logits = batch_cross_entropy(logits, labels)

    # backward
    model.head.w.add_grad(g_logits.T @ zt)
    model.head.b.add_grad(np.sum(g_logits, axis=0))
    g_zt = g_logits @ model.head.w.value.array

    d_a2 = float(np.sum(g_zt * f_xt))
    d_b2 = float(np.sum(g_zt * r))
    ga2, gb2 = gate_vjp(a2, b2, d_a2, d_b2)
    model.gate2.g_alpha.add_grad(Tensor(ga2))
    model.gate2.g_beta.add_grad(Tensor(gb2))

    g_r = b2 * g_zt
    model.proj.w.add_grad(g_r.T @ z2)
    model.proj.b.add_grad(np.sum(g_r, axis=0))
    g_z2 = g_r @ model.proj.w.value.array
    model.p2.vjp(p2_states, g_z2)

    g_xt = backbone_input_vjp(model.backbone, cache_t, a2 * g_zt)

    d_a1 = float(np.sum(g_xt * x_rows))
    d_b1 = float(np.sum(g_xt * z1))
    ga1, gb1 = gate_vjp(a1, b1, d_a1, d_b1)
    model.gate1.g_alpha.add_grad(Tensor(ga1))
    model.gate1.g_beta.add_grad(Tensor(gb1))

    model.p1.vjp(p1_states, b1 * g_xt)
    return value, logits


def predict(model: PromptModel, x_rows: np.ndarray,
            f_x: np.ndarray | None = None) -> np.ndarray:
    return np.argmax(forward_full(model, x_rows, f_x), axis=1)


# --- classifier wrapper used by the baseline protocols ------------------------

@dataclass
class BackboneClassifier:
    """Backbone plus affine head; the trainable slice depends on the protocol."""

    backbone: Backbone
    head: AffineStage

    def forward(self, x_rows: np.ndarray) -> np.ndarray:
        feats, _ = backbone_forward(self.backbone, x_rows)
        return feats @ self.head.w.value.array.T + self.head.b.value.array

    def predict(self, x_rows: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x_rows), axis=1)

    def loss_and_grads(self, x_rows: np.ndarray, labels: np.ndarray,
                       train_backbone: str = "none") -> tuple[float, np.ndarray]:
        """Mean cross-entropy with gradients into head (+ backbone per mode).

        Returns (loss, logits), the logits being those the loss was taken on.

        train_backbone: "none" (head only), "bias" (backbone biases), or
        "all" (every backbone weight). Modes other than "none" require an
        unfrozen backbone.
        """
        x_rows = np.asarray(x_rows, dtype=np.float64)
        if x_rows.shape[0] == 0:
            raise ValueError("empty batch")
        feats, cache = backbone_forward(self.backbone, x_rows)
        logits = feats @ self.head.w.value.array.T + self.head.b.value.array
        value, g_logits = batch_cross_entropy(logits, np.asarray(labels))
        self.head.w.add_grad(g_logits.T @ feats)
        self.head.b.add_grad(np.sum(g_logits, axis=0))
        if train_backbone != "none":
            g_feats = g_logits @ self.head.w.value.array
            backbone_param_vjp(self.backbone, cache, g_feats,
                               bias_only=(train_backbone == "bias"))
        return value, logits


def make_head(h: int, n_classes: int, name_prefix: str = "head") -> AffineStage:
    """Zero-initialized classifier head (fresh per downstream task)."""
    return AffineStage(Param(f"{name_prefix}.W", Tensor(np.zeros((n_classes, h)))),
                       Param(f"{name_prefix}.b", Tensor(np.zeros(n_classes))))


def param_count_report(d: int, d_tilde: int, L: int, n: int, m: int, C: int
                       ) -> list[tuple[str, int]]:
    """Symbolic trainable-parameter counts for the standard baselines.

    adapter/bias-style MLPs pay 2*d*d_tilde per layer over L layers; token
    prompting pays n*d per layer; the equilibrium prompt pair pays m*d_tilde
    total. The classifier head (d*C) is listed separately because every
    method carries one.
    """
    for name, v in (("d", d), ("d_tilde", d_tilde), ("L", L), ("n", n), ("m", m), ("C", C)):
        if not isinstance(v, int) or v <= 0:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return [
        ("adapter", 2 * d * d_tilde * L),
        ("vpt", n * L * d),
        ("lion", m * d_tilde),
        ("head", d * C),
    ]
