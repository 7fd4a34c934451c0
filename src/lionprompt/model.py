"""Prompted model: frozen backbone, two equilibrium prompt blocks, gates, head.

The forward pass follows the two-pass blending scheme literally:

    x_tilde = alpha1 * x + beta1 * P1(x)
    z       = F(x)                      # backbone on the raw input
    z_tilde = alpha2 * F(x_tilde) + beta2 * proj(P2(z))
    logits  = head(z_tilde)

so the backbone runs twice per example (once on x for the second prompt's
input, once on x_tilde for the first blend term). `loss_and_grads` and
`predict` run the one `forward`, which keeps what the reverse sweep reads;
its `cache_t` lives in the model's reusable `workspace` arrays and is valid
until the next `forward` on that model.

`PromptModel` is also the prompted protocol's task under `robust_opt.train`.
F(x) does not depend on any trainable parameter and the trainer feeds the
same rows every epoch, so `prepare` computes it once per training run, and
those rows' epochs warm-start their solves from the fixed points of the
epochs before. Every other solve, `predict` included, starts from zero, so
predictions never depend on training history.

Each prompt block is one `deq.PromptBlock`, the one equilibrium cell type
and the paper's implicit layer at each end of the backbone. Only the two
cells, the projection, the head and the four gate scalars are trainable;
the backbone's parameter gradients are never computed. The backward pass
is one hand-written reverse sweep plus each block's implicit `vjp`. Every
forward solve must converge: a prompt block reads z* through
`SolveReport.certified` and raises `DivergenceError` (`block p1: ...`)
rather than hand a non-fixed point to the implicit backward or a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deq import PromptBlock, SolverConfig
from .errors import ShapeMismatchError
from .numerics import Param, batch_cross_entropy, tanh_deriv
from .rng import substream

# Smallest mixing weight a gate can produce. Keeping alpha inside
# [2^-53, 1 - 2^-53] makes alpha + (1 - alpha) round to exactly 1.0 while
# both coefficients stay strictly inside (0, 1) even for wildly saturated
# gate scalars, where the unclamped softmax would round to 0 or 1.
GATE_EPS = 2.0 ** -53


@dataclass
class AffineStage:
    """One affine layer W x + b with explicit parameters; as a backbone stage
    it is followed by tanh, as the projection or the head by nothing."""

    w: Param
    b: Param

    def __post_init__(self):
        if self.w.value.ndim != 2 or self.b.value.shape != (self.w.value.shape[0],):
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
    """Feature extractor as a stack of affine stages, each followed by tanh."""

    stages: list[AffineStage]

    @property
    def in_dim(self) -> int:
        return self.stages[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.stages[-1].out_dim

    def params(self) -> list[Param]:
        return [p for s in self.stages for p in (s.w, s.b)]


def _buffer(workspace: dict | None, key, shape: tuple[int, int]) -> np.ndarray | None:
    """The workspace's array under `key`, reallocated only when `shape` changes."""
    if workspace is None:
        return None
    if key not in workspace or workspace[key].shape != shape:
        workspace[key] = np.empty(shape)
    return workspace[key]


def backbone_forward(backbone: Backbone, x_rows: np.ndarray,
                     workspace: dict | None = None) -> tuple[np.ndarray, list]:
    """Run all stages on a batch; the cache holds per-stage (input, output).

    Given a caller-owned `workspace` dict, each hidden stage writes its output
    into an array kept there, so the cache is valid until the next call with
    that dict; the final output is always fresh. Bit-identical either way.
    """
    cache = []
    h = np.asarray(x_rows, dtype=np.float64)
    last = len(backbone.stages) - 1
    for i, s in enumerate(backbone.stages):
        buf = None if i == last else _buffer(workspace, ("out", i), (len(h), s.out_dim))
        out = np.matmul(h, s.w.value.T, out=buf)
        out += s.b.value
        out = np.tanh(out, out=out)
        cache.append((h, out))
        h = out
    return h, cache


def _backward(backbone: Backbone, cache: list, g_out: np.ndarray,
              trainable, workspace: dict | None) -> np.ndarray:
    """Reverse sweep over the stages, adding gradients to the Params in `trainable`;
    returns the cotangent on the first stage's pre-activation."""
    g = g_out
    for i in range(len(backbone.stages) - 1, -1, -1):
        s, (h_in, out) = backbone.stages[i], cache[i]
        t = tanh_deriv(out, _buffer(workspace, ("t", i), out.shape))
        t *= g
        if s.w in trainable:
            s.w.add_grad(t.T @ h_in)
        if s.b in trainable:
            s.b.add_grad(np.sum(t, axis=0))
        if i:
            g = np.matmul(t, s.w.value, out=_buffer(workspace, ("g", i), (len(t), s.in_dim)))
    return t


def backbone_input_vjp(backbone: Backbone, cache: list, g_out: np.ndarray,
                       workspace: dict | None = None) -> np.ndarray:
    """Pull a cotangent on the output back to the input; parameters untouched.

    The sweep's intermediates live in `workspace` (as in `backbone_forward`;
    it may be the one behind `cache`), and the result is a fresh array.
    """
    return _backward(backbone, cache, g_out, (), workspace) @ backbone.stages[0].w.value


def backbone_param_vjp(backbone: Backbone, cache: list, g_out: np.ndarray,
                       trainable: list[Param], workspace: dict | None = None) -> None:
    """Accumulate gradients into exactly the backbone Params in `trainable`
    (never forming the input gradient), with `workspace` as in `backbone_input_vjp`."""
    _backward(backbone, cache, g_out, trainable, workspace)


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


# --- the full model -----------------------------------------------------------

@dataclass
class PromptModel:
    """The paper's model, and the prompted protocol's task under `robust_opt.train`."""

    backbone: Backbone
    p1: PromptBlock
    p2: PromptBlock
    proj: AffineStage
    head: AffineStage
    gate1: GatePair
    gate2: GatePair
    solver: SolverConfig = field(default_factory=SolverConfig)
    workspace: dict = field(default_factory=dict, repr=False, compare=False)
    # (x, F(x), [(P1 z*, P2 z*) of the last two warm passes, oldest first])
    prepared: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def prepare(self, x: np.ndarray) -> None:
        """Take `x` as the training rows: F(x) once, and no fixed points yet."""
        self.prepared = (x, backbone_forward(self.backbone, x)[0], [])

    def trainable_params(self) -> list[Param]:
        """The full trainable set, in a stable documented order."""
        out = self.p1.params() + self.p2.params()
        out.extend([self.proj.w, self.proj.b, self.head.w, self.head.b,
                    self.gate1.g_alpha, self.gate1.g_beta,
                    self.gate2.g_alpha, self.gate2.g_beta])
        return out

    def partitioned_params(self) -> list[Param]:
        """The implicit layers' weights, W and U of P1 and P2; the rest descend."""
        return [self.p1.W, self.p1.U, self.p2.W, self.p2.U]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        return loss_and_grads(self, x, y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return predict(self, x)

    def post_step(self) -> None:
        self.p1.renormalize()
        self.p2.renormalize()

    def metrics(self) -> dict[str, float]:
        return {"alpha1": self.gate1.coeffs()[0], "alpha2": self.gate2.coeffs()[0]}


def _uniform(rng: np.random.Generator, shape: tuple[int, int], fan_in: int) -> np.ndarray:
    """Small-uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    lim = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-lim, lim, size=shape)


def make_backbone(d: int, hidden: int, h: int, seed: int) -> Backbone:
    """Fresh 2-layer tanh MLP d -> hidden -> h with small-uniform weights."""
    rng = substream(seed, "backbone-init")
    stages = [AffineStage(Param("backbone.0.W", _uniform(rng, (hidden, d), d)),
                          Param("backbone.0.b", np.zeros(hidden))),
              AffineStage(Param("backbone.1.W", _uniform(rng, (h, hidden), hidden)),
                          Param("backbone.1.b", np.zeros(h)))]
    return Backbone(stages=stages)


def clone_backbone(backbone: Backbone) -> Backbone:
    """Independent Params over the same read-only values, so a protocol that
    trains the backbone leaves the pretrained original untouched."""
    return Backbone([AffineStage(Param(s.w.name, s.w.value), Param(s.b.name, s.b.value))
                     for s in backbone.stages])


def build_prompt_model(backbone: Backbone, n_classes: int, seed: int,
                       kappa: float = PromptBlock.kappa,
                       solver: SolverConfig | None = None) -> PromptModel:
    """Fresh trainable parts wrapped around an existing (frozen) backbone.

    Head starts at zero (logits are pure bias until the first step); cells
    and projection start small-uniform at +-1/sqrt(fan_in); gates start at
    (0, 0), i.e. an even 0.5/0.5 blend.
    """
    d, h = backbone.in_dim, backbone.out_dim
    rng = substream(seed, "prompt-init")

    def block(name: str, dim: int) -> PromptBlock:
        blk = PromptBlock(name, Param(f"{name}.0.W", _uniform(rng, (dim, dim), dim)),
                          Param(f"{name}.0.U", _uniform(rng, (dim, dim), dim)),
                          Param(f"{name}.0.b", np.zeros(dim)), kappa=kappa)
        blk.renormalize()
        return blk

    return PromptModel(
        backbone=backbone,
        p1=block("p1", d),
        p2=block("p2", h),
        proj=AffineStage(Param("proj.W", _uniform(rng, (h, h), h)),
                         Param("proj.b", np.zeros(h))),
        head=make_head(h, n_classes),
        gate1=GatePair(Param("gate1.a", 0.0), Param("gate1.b", 0.0)),
        gate2=GatePair(Param("gate2.a", 0.0), Param("gate2.b", 0.0)),
        solver=solver or SolverConfig(),
    )


@dataclass(frozen=True)
class ForwardPass:
    """Logits of one forward pass plus everything the reverse sweep reads;
    `cache_t` aliases the model's workspace, valid until its next `forward`."""

    x: np.ndarray                 # the input rows
    z1: np.ndarray                # P1(x), the fixed point of P1 on x
    xt: np.ndarray                # x_tilde = alpha1 * x + beta1 * P1(x)
    f_xt: np.ndarray              # F(x_tilde)
    cache_t: list                 # backbone cache of F(x_tilde)
    f_x: np.ndarray               # F(x)
    z2: np.ndarray                # P2(F(x)), the fixed point of P2 on F(x)
    r: np.ndarray                 # proj(P2(F(x)))
    zt: np.ndarray                # z_tilde = alpha2 * F(x_tilde) + beta2 * r
    logits: np.ndarray            # head(z_tilde)


def forward(model: PromptModel, x_rows: np.ndarray, warm: bool = False) -> ForwardPass:
    """The blended forward pass on a batch of rows (n x C logits).

    F(x_rows) is computed here unless `x_rows` is the very array `model.prepare`
    took. On those rows `warm=True` starts both solves from their history
    (zero, then the last pass's fixed points, then their extrapolation
    2 z*_{e-1} - z*_{e-2}) and records the new fixed points; every other
    solve starts from zero.
    """
    rows = model.prepared if model.prepared and model.prepared[0] is x_rows else None
    history = rows[2] if rows and warm else []
    z1_start = z2_start = None
    if len(history) == 1:
        z1_start, z2_start = history[0]
    elif history:
        z1_start, z2_start = (2.0 * zn - zo for zn, zo in zip(history[1], history[0]))
    x_rows = np.asarray(x_rows, dtype=np.float64)
    a1, b1 = model.gate1.coeffs()
    a2, b2 = model.gate2.coeffs()
    z1 = model.p1.solve(x_rows, model.solver, z1_start)
    xt = a1 * x_rows + b1 * z1
    f_xt, cache_t = backbone_forward(model.backbone, xt, model.workspace)
    f_x = rows[1] if rows else backbone_forward(model.backbone, x_rows)[0]
    z2 = model.p2.solve(f_x, model.solver, z2_start)
    r = z2 @ model.proj.w.value.T + model.proj.b.value
    zt = a2 * f_xt + b2 * r
    logits = zt @ model.head.w.value.T + model.head.b.value
    if rows and warm:
        model.prepared = (rows[0], rows[1], history[-1:] + [(z1, z2)])
    return ForwardPass(x_rows, z1, xt, f_xt, cache_t, f_x, z2, r, zt, logits)


def loss_and_grads(model: PromptModel, x_rows: np.ndarray, labels: np.ndarray
                   ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus gradients accumulated into every Θ_t Param.

    Returns (loss, logits), the logits being those the loss was taken on,
    of a warm `forward`. One hand-written reverse sweep over the forward
    pass: head -> gate2/proj/P2 -> backbone input VJP (parameters skipped:
    the backbone is frozen) -> gate1/P1.
    """
    fw = forward(model, x_rows, warm=True)
    value, g_logits = batch_cross_entropy(fw.logits, np.asarray(labels))
    a1, b1 = model.gate1.coeffs()
    a2, b2 = model.gate2.coeffs()

    model.head.w.add_grad(g_logits.T @ fw.zt)
    model.head.b.add_grad(np.sum(g_logits, axis=0))
    g_zt = g_logits @ model.head.w.value

    d_a2 = float(np.sum(g_zt * fw.f_xt))
    d_b2 = float(np.sum(g_zt * fw.r))
    ga2, gb2 = gate_vjp(a2, b2, d_a2, d_b2)
    model.gate2.g_alpha.add_grad(ga2)
    model.gate2.g_beta.add_grad(gb2)

    g_r = b2 * g_zt
    model.proj.w.add_grad(g_r.T @ fw.z2)
    model.proj.b.add_grad(np.sum(g_r, axis=0))
    g_z2 = g_r @ model.proj.w.value
    model.p2.vjp(fw.f_x, fw.z2, g_z2)

    g_xt = backbone_input_vjp(model.backbone, fw.cache_t, a2 * g_zt, model.workspace)

    d_a1 = float(np.sum(g_xt * fw.x))
    d_b1 = float(np.sum(g_xt * fw.z1))
    ga1, gb1 = gate_vjp(a1, b1, d_a1, d_b1)
    model.gate1.g_alpha.add_grad(ga1)
    model.gate1.g_beta.add_grad(gb1)

    model.p1.vjp(fw.x, fw.z1, b1 * g_xt)
    return value, fw.logits


def predict(model: PromptModel, x_rows: np.ndarray) -> np.ndarray:
    return np.argmax(forward(model, x_rows).logits, axis=1)


def make_head(h: int, n_classes: int) -> AffineStage:
    """Zero-initialized classifier head (fresh per downstream task)."""
    return AffineStage(Param("head.W", np.zeros((n_classes, h))),
                       Param("head.b", np.zeros(n_classes)))


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
