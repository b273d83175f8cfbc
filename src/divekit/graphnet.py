"""Bipartite variable-constraint graph model of an instance and a generative
network over candidate assignments.

The graph has one node per variable and per row, one edge per nonzero
coefficient, and a small documented feature set (``FEATURE_VERSION``).  The
network batch-normalizes raw features, embeds both node types with one-
hidden-layer MLPs, applies two coefficient-modulated convolutions
(variables to constraints, then back) with residual connections and
degree-normalized sum aggregation, and emits per-candidate Bernoulli means
through a final MLP head.  Binary candidates use one head; general integers
use one head per bit of their domain width, decoded little-endian and
clamped into the domain.

Forward/backward are written out by hand (verified against central finite
differences in the tests); message passing is a sparse product with the two
degree-normalized adjacencies that ``make_batch`` builds once per batch.
Training minimizes the exact KL divergence from the pooled target
distribution to the factorized model, with ADAM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bnb import compute_locks
from .instances import INT_TOL, MilpInstance, SENSE_EQ, SENSE_GE, SENSE_LE
from .kernels import scatter_messages
from .simplex import LpSolution

FEATURE_VERSION = "v1"
CHECKPOINT_FORMAT = "divekit-gnn"
CHECKPOINT_VERSION = 1

#: fixed variable-node features
VAR_FEATURES = (
    "obj_norm", "lb_finite", "ub_finite", "lb_value", "ub_value",
    "is_integer", "is_candidate", "lp_value", "fractionality",
    "redcost_sign", "at_lower", "at_upper", "up_locks", "down_locks", "degree",
)
#: fixed constraint-node features
CONS_FEATURES = (
    "is_le", "is_ge", "is_eq", "rhs_norm", "row_norm_log", "dual", "slack_norm", "degree",
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LOG_CLAMP = 1e-12


class ShapeMismatch(ValueError):
    pass


class EmptyPool(ValueError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


def candidate_index(inst: MilpInstance) -> np.ndarray:
    """Divable variables that are not fixed; the prediction targets."""
    return np.flatnonzero(inst.divable & (inst.lb + INT_TOL < inst.ub))


def domain_bits(lo: float, hi: float) -> int:
    width = int(np.floor(hi - lo + 0.5)) + 1
    return max(1, int(np.ceil(np.log2(max(width, 2)))))


@dataclass
class BipartiteGraph:
    name: str
    var_feats: np.ndarray
    cons_feats: np.ndarray
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_coef: np.ndarray
    candidates: np.ndarray
    cand_lb: np.ndarray
    cand_ub: np.ndarray
    cand_bits: np.ndarray
    var_deg: np.ndarray
    cons_deg: np.ndarray

    @property
    def n_vars(self):
        return self.var_feats.shape[0]

    @property
    def n_cons(self):
        return self.cons_feats.shape[0]


def extract_graph(inst: MilpInstance, root_sol: LpSolution) -> BipartiteGraph:
    """Deterministic features from the instance and its root LP solution."""
    if root_sol.duals is None:
        raise ValueError("graph extraction needs an optimal root LP with duals")
    n, m = inst.n, inst.m
    rows, cols, vals = inst.coo()
    x = root_sol.x[:n]
    duals = root_sol.duals

    var_deg = np.bincount(cols, minlength=n).astype(np.float64)
    cons_deg = np.bincount(rows, minlength=m).astype(np.float64)
    up, down = compute_locks(inst)

    lb_fin = np.isfinite(inst.lb)
    ub_fin = np.isfinite(inst.ub)
    redcost = duals.y_lb[:n] + duals.y_ub[:n]
    frac = np.abs(x - np.floor(x + 0.5))
    vf = np.column_stack([
        inst.c / (1.0 + np.max(np.abs(inst.c), initial=0.0)),
        lb_fin.astype(np.float64),
        ub_fin.astype(np.float64),
        np.clip(np.where(lb_fin, inst.lb, 0.0), -1e4, 1e4),
        np.clip(np.where(ub_fin, inst.ub, 0.0), -1e4, 1e4),
        inst.integer.astype(np.float64),
        (inst.divable & (inst.lb + INT_TOL < inst.ub)).astype(np.float64),
        x,
        frac,
        np.sign(redcost),
        (np.abs(x - inst.lb) <= 1e-7).astype(np.float64),
        (np.abs(x - inst.ub) <= 1e-7).astype(np.float64),
        up / (1.0 + m),
        down / (1.0 + m),
        var_deg / (1.0 + m),
    ])

    row_norm = np.sqrt(np.bincount(rows, weights=vals * vals, minlength=m))
    row_norm = np.maximum(row_norm, 1e-12)
    act = inst.activities(x)
    cf = np.column_stack([
        (inst.senses == SENSE_LE).astype(np.float64),
        (inst.senses == SENSE_GE).astype(np.float64),
        (inst.senses == SENSE_EQ).astype(np.float64),
        inst.b / (1.0 + row_norm),
        np.log1p(row_norm),
        duals.y_b,
        (inst.b - act) / (1.0 + np.abs(inst.b)),
        cons_deg / (1.0 + n),
    ])

    cand = candidate_index(inst)
    bits = np.array([domain_bits(inst.lb[j], inst.ub[j]) for j in cand], dtype=np.int64)
    return BipartiteGraph(
        name=inst.name,
        var_feats=vf,
        cons_feats=cf,
        edge_row=rows.copy(),
        edge_col=cols.copy(),
        edge_coef=(vals / row_norm[rows]).astype(np.float64),
        candidates=cand.astype(np.int64),
        cand_lb=inst.lb[cand].copy(),
        cand_ub=inst.ub[cand].copy(),
        cand_bits=bits,
        var_deg=np.maximum(var_deg, 1.0),
        cons_deg=np.maximum(cons_deg, 1.0),
    )


@dataclass
class GraphBatch:
    var_feats: np.ndarray
    cons_feats: np.ndarray
    to_cons: sp.csr_matrix  # constraints <- variables: D_c^-1/2 C
    to_vars: sp.csr_matrix  # variables <- constraints: D_v^-1/2 C^T
    cand_rows: list  # per graph: global variable-row indices of candidates
    cand_bits: list
    graphs: list


def make_batch(graphs: list[BipartiteGraph]) -> GraphBatch:
    """Stack the graphs block-diagonally; C[row, col] = edge_coef, and D_c,
    D_v are the constraint and variable degrees."""
    v_off = 0
    c_off = 0
    er, ec, cand_rows = [], [], []
    for g in graphs:
        er.append(g.edge_row + c_off)
        ec.append(g.edge_col + v_off)
        cand_rows.append(g.candidates + v_off)
        v_off += g.n_vars
        c_off += g.n_cons
    rows, cols = np.concatenate(er), np.concatenate(ec)
    coef = np.concatenate([g.edge_coef for g in graphs])
    var_deg = np.concatenate([g.var_deg for g in graphs])
    cons_deg = np.concatenate([g.cons_deg for g in graphs])
    return GraphBatch(
        var_feats=np.vstack([g.var_feats for g in graphs]),
        cons_feats=np.vstack([g.cons_feats for g in graphs]),
        to_cons=sp.csr_matrix((coef / np.sqrt(cons_deg[rows]), (rows, cols)),
                              shape=(c_off, v_off)),
        to_vars=sp.csr_matrix((coef / np.sqrt(var_deg[cols]), (cols, rows)),
                              shape=(v_off, c_off)),
        cand_rows=cand_rows,
        cand_bits=[g.cand_bits for g in graphs],
        graphs=graphs,
    )


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GraphNet:
    """Generative model over candidate assignments; see the module docstring
    for the architecture."""

    def __init__(self, n_var_feats=len(VAR_FEATURES), n_cons_feats=len(CONS_FEATURES),
                 hidden=64, n_bits=1, seed=0):
        self.n_var_feats = n_var_feats
        self.n_cons_feats = n_cons_feats
        self.hidden = hidden
        self.n_bits = n_bits
        rng = np.random.default_rng(seed)

        def he(fan_in, shape):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

        h = hidden
        self.params = {
            "bn_v_gamma": np.ones(n_var_feats),
            "bn_v_beta": np.zeros(n_var_feats),
            "bn_c_gamma": np.ones(n_cons_feats),
            "bn_c_beta": np.zeros(n_cons_feats),
            "emb_v_w1": he(n_var_feats, (n_var_feats, h)),
            "emb_v_b1": np.zeros(h),
            "emb_v_w2": he(h, (h, h)),
            "emb_v_b2": np.zeros(h),
            "emb_c_w1": he(n_cons_feats, (n_cons_feats, h)),
            "emb_c_b1": np.zeros(h),
            "emb_c_w2": he(h, (h, h)),
            "emb_c_b2": np.zeros(h),
            "conv_vc_w": he(h, (h, h)),
            "conv_vc_b": np.zeros(h),
            "conv_cv_w": he(h, (h, h)),
            "conv_cv_b": np.zeros(h),
            "out_w1": he(h, (h, h)),
            "out_b1": np.zeros(h),
            "out_w2": he(h, (h, n_bits)),
            "out_b2": np.zeros(n_bits),
        }
        self.running = {
            "bn_v_mean": np.zeros(n_var_feats),
            "bn_v_var": np.ones(n_var_feats),
            "bn_c_mean": np.zeros(n_cons_feats),
            "bn_c_var": np.ones(n_cons_feats),
        }

    # -- forward -----------------------------------------------------------

    def _bn(self, raw, prefix, train, update_stats, cache):
        p = self.params
        if train:
            mu = raw.mean(axis=0) if raw.shape[0] else np.zeros(raw.shape[1])
            var = raw.var(axis=0) if raw.shape[0] else np.ones(raw.shape[1])
            if update_stats:
                r = self.running
                r[f"bn_{prefix}_mean"] = (1 - BN_MOMENTUM) * r[f"bn_{prefix}_mean"] + BN_MOMENTUM * mu
                r[f"bn_{prefix}_var"] = (1 - BN_MOMENTUM) * r[f"bn_{prefix}_var"] + BN_MOMENTUM * var
        else:
            mu = self.running[f"bn_{prefix}_mean"]
            var = self.running[f"bn_{prefix}_var"]
        xhat = (raw - mu) / np.sqrt(var + BN_EPS)
        if cache is not None:
            cache[f"xhat_{prefix}"] = xhat
        return p[f"bn_{prefix}_gamma"] * xhat + p[f"bn_{prefix}_beta"]

    def forward(self, batch: GraphBatch, train=False, update_stats=False):
        """Bernoulli means for every variable node (restrict to candidate
        rows for predictions); returns ``(means, cache)`` with the cache
        populated only in train mode."""
        p = self.params
        if batch.var_feats.shape[1] != self.n_var_feats:
            raise ShapeMismatch(
                f"expected {self.n_var_feats} variable features, got {batch.var_feats.shape[1]}"
            )
        if batch.cons_feats.shape[1] != self.n_cons_feats:
            raise ShapeMismatch(
                f"expected {self.n_cons_feats} constraint features, got {batch.cons_feats.shape[1]}"
            )
        cache = {} if train else None
        v0 = self._bn(batch.var_feats, "v", train, update_stats, cache)
        c0 = self._bn(batch.cons_feats, "c", train, update_stats, cache)

        v1 = np.maximum(v0 @ p["emb_v_w1"] + p["emb_v_b1"], 0.0)
        v2 = np.maximum(v1 @ p["emb_v_w2"] + p["emb_v_b2"], 0.0)
        c1 = np.maximum(c0 @ p["emb_c_w1"] + p["emb_c_b1"], 0.0)
        c2 = np.maximum(c1 @ p["emb_c_w2"] + p["emb_c_b2"], 0.0)

        agg_c = scatter_messages(batch.to_cons, v2, np.zeros_like(c2))
        c3 = np.maximum(c2 + agg_c @ p["conv_vc_w"] + p["conv_vc_b"], 0.0)

        agg_v = scatter_messages(batch.to_vars, c3, np.zeros_like(v2))
        v3 = np.maximum(v2 + agg_v @ p["conv_cv_w"] + p["conv_cv_b"], 0.0)

        o1 = np.maximum(v3 @ p["out_w1"] + p["out_b1"], 0.0)
        logits = o1 @ p["out_w2"] + p["out_b2"]
        means = _sigmoid(logits)
        if train:
            cache.update(v0=v0, c0=c0, v1=v1, v2=v2, c1=c1, c2=c2,
                         agg_c=agg_c, c3=c3, agg_v=agg_v, v3=v3, o1=o1,
                         batch=batch)
        return means, cache

    # -- backward ----------------------------------------------------------

    def backward(self, cache, dlogits):
        """Gradients of every parameter given d(loss)/d(logits)."""
        p = self.params
        batch: GraphBatch = cache["batch"]
        g = {}

        o1 = cache["o1"]
        g["out_w2"] = o1.T @ dlogits
        g["out_b2"] = dlogits.sum(axis=0)
        do1 = (dlogits @ p["out_w2"].T) * (o1 > 0)
        v3 = cache["v3"]
        g["out_w1"] = v3.T @ do1
        g["out_b1"] = do1.sum(axis=0)
        dv3 = (do1 @ p["out_w1"].T) * (v3 > 0)

        agg_v = cache["agg_v"]
        g["conv_cv_w"] = agg_v.T @ dv3
        g["conv_cv_b"] = dv3.sum(axis=0)
        dagg_v = dv3 @ p["conv_cv_w"].T
        dv2 = dv3.copy()  # residual
        dc3 = scatter_messages(batch.to_vars.T, dagg_v, np.zeros_like(cache["c3"]))
        dc3 *= cache["c3"] > 0

        agg_c = cache["agg_c"]
        g["conv_vc_w"] = agg_c.T @ dc3
        g["conv_vc_b"] = dc3.sum(axis=0)
        dagg_c = dc3 @ p["conv_vc_w"].T
        dc2 = dc3.copy()  # residual
        scatter_messages(batch.to_cons.T, dagg_c, dv2)

        v1, v2 = cache["v1"], cache["v2"]
        dv2 *= v2 > 0
        g["emb_v_w2"] = v1.T @ dv2
        g["emb_v_b2"] = dv2.sum(axis=0)
        dv1 = (dv2 @ p["emb_v_w2"].T) * (v1 > 0)
        v0 = cache["v0"]
        g["emb_v_w1"] = v0.T @ dv1
        g["emb_v_b1"] = dv1.sum(axis=0)
        dv0 = dv1 @ p["emb_v_w1"].T
        g["bn_v_gamma"] = (dv0 * cache["xhat_v"]).sum(axis=0)
        g["bn_v_beta"] = dv0.sum(axis=0)

        c1, c2 = cache["c1"], cache["c2"]
        dc2 *= c2 > 0
        g["emb_c_w2"] = c1.T @ dc2
        g["emb_c_b2"] = dc2.sum(axis=0)
        dc1 = (dc2 @ p["emb_c_w2"].T) * (c1 > 0)
        c0 = cache["c0"]
        g["emb_c_w1"] = c0.T @ dc1
        g["emb_c_b1"] = dc1.sum(axis=0)
        dc0 = dc1 @ p["emb_c_w1"].T
        g["bn_c_gamma"] = (dc0 * cache["xhat_c"]).sum(axis=0)
        g["bn_c_beta"] = dc0.sum(axis=0)

        for name, grad in g.items():
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradient(f"non-finite gradient in {name}")
        return g

    # -- prediction ----------------------------------------------------------

    def predict(self, graph: BipartiteGraph, strategy="mode", seed=None):
        """Assignment and its per-candidate probability.

        ``mode`` rounds each Bernoulli mean at 0.5 (exact ties to 0);
        ``sample`` draws each bit with the seeded generator.  Bitwise heads
        decode to ``lb + sum(bit_k 2^k)`` clamped into the domain.
        """
        means, _ = self.forward(make_batch([graph]), train=False)
        cm = means[graph.candidates]
        if strategy == "mode":
            bits = cm > 0.5
        elif strategy == "sample":
            rng = np.random.default_rng(seed)
            bits = rng.random(cm.shape) < cm
        else:
            raise ValueError(f"unknown prediction strategy {strategy!r}")
        values = np.empty(graph.candidates.size)
        probs = np.ones(graph.candidates.size)
        for i in range(graph.candidates.size):
            nb = int(graph.cand_bits[i])
            code = 0
            for k in range(nb):
                if bits[i, k]:
                    code |= 1 << k
                probs[i] *= cm[i, k] if bits[i, k] else 1.0 - cm[i, k]
            v = graph.cand_lb[i] + code
            values[i] = min(max(v, graph.cand_lb[i]), graph.cand_ub[i])
        return values, probs


# ---------------------------------------------------------------------------
# targets and the KL objective
# ---------------------------------------------------------------------------

@dataclass
class TargetDistribution:
    assignments: np.ndarray  # (S, n_cand) integer candidate values
    probs: np.ndarray  # (S,)
    bits: np.ndarray  # (S, n_cand, K) float bit planes
    mask: np.ndarray  # (n_cand, K) valid-bit mask


def target_distribution(pool_solutions, inst: MilpInstance, temperature: float,
                        n_bits: int | None = None):
    """Candidate-marginal target: pool entries restricted to the candidates,
    duplicates merged, and weights exp(-z / temperature) normalized with a
    max-shift.  ``pool_solutions`` is a list of (x, z) pairs."""
    if not pool_solutions:
        raise EmptyPool("cannot build a target from an empty pool")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    cand = candidate_index(inst)
    merged = {}
    for x, z in pool_solutions:
        key = tuple(int(round(v)) for v in np.asarray(x)[cand])
        merged.setdefault(key, []).append(float(z))
    keys = sorted(merged)
    zs = np.array([min(merged[k]) for k in keys])
    w = np.exp(-(zs - zs.min()) / temperature)
    probs = w / w.sum()
    assigns = np.array(keys, dtype=np.int64).reshape(len(keys), cand.size)
    bits_per = np.array([domain_bits(inst.lb[j], inst.ub[j]) for j in cand], dtype=np.int64)
    K = int(n_bits) if n_bits is not None else int(bits_per.max(initial=1))
    codes = assigns - np.floor(inst.lb[cand] + 0.5).astype(np.int64)[None, :]
    bits = np.zeros((len(keys), cand.size, K))
    for k in range(K):
        bits[:, :, k] = (codes >> k) & 1
    mask = np.zeros((cand.size, K))
    for i, nb in enumerate(bits_per):
        mask[i, : min(nb, K)] = 1.0
    return TargetDistribution(assignments=assigns, probs=probs, bits=bits, mask=mask)


def default_temperature(objective_spreads) -> float:
    """Scale-aware default: half the mean pool objective spread plus one."""
    spreads = np.asarray(list(objective_spreads), dtype=np.float64)
    if spreads.size == 0:
        return 1.0
    return 0.5 * (float(spreads.mean()) + 1.0)


def kl_loss(means_cand: np.ndarray, target: TargetDistribution) -> float:
    """Exact KL(p || q) over the (small) target support."""
    m = np.clip(means_cand, LOG_CLAMP, 1.0 - LOG_CLAMP)
    logq = (target.bits * np.log(m)[None] + (1.0 - target.bits) * np.log(1.0 - m)[None])
    logq = (logq * target.mask[None]).sum(axis=(1, 2))
    p = target.probs
    return float(np.sum(p * (np.log(np.maximum(p, LOG_CLAMP)) - logq)))


def kl_grad_logits(means_cand: np.ndarray, target: TargetDistribution) -> np.ndarray:
    """d KL / d logits: (mean - target bit marginal) on valid bits."""
    pbar = np.einsum("s,sjk->jk", target.probs, target.bits)
    return (means_cand - pbar) * target.mask


def batch_loss_and_grads(model: GraphNet, batch: GraphBatch, targets, update_stats=True):
    """Mean KL over the batch and the full parameter gradient dict."""
    means, cache = model.forward(batch, train=True, update_stats=update_stats)
    G = len(targets)
    loss = 0.0
    dlogits = np.zeros_like(means)
    for rows, target in zip(batch.cand_rows, targets):
        mc = means[rows]
        loss += kl_loss(mc, target)
        dlogits[rows] += kl_grad_logits(mc, target)
    loss /= G
    dlogits /= G
    grads = model.backward(cache, dlogits)
    return loss, grads


def batch_loss(model: GraphNet, batch: GraphBatch, targets) -> float:
    means, _ = model.forward(batch, train=False)
    return sum(
        kl_loss(means[rows], t) for rows, t in zip(batch.cand_rows, targets)
    ) / len(targets)


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------

class AdamState:
    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def adam_step(params, grads, state: AdamState, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected ADAM update, applied in sorted parameter order."""
    state.t += 1
    t = state.t
    for k in sorted(params):
        gk = grads[k]
        if not np.all(np.isfinite(gk)):
            raise NonFiniteGradient(f"non-finite gradient in {k}")
        state.m[k] = beta1 * state.m[k] + (1 - beta1) * gk
        state.v[k] = beta2 * state.v[k] + (1 - beta2) * gk * gk
        mhat = state.m[k] / (1 - beta1 ** t)
        vhat = state.v[k] / (1 - beta2 ** t)
        params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return params


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainingConfig:
    temperature: float | None = None  # None: scale-aware default per corpus
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 100
    batch_size: int = 16
    val_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.temperature is not None and self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("bad training configuration")


@dataclass
class TrainExample:
    graph: BipartiteGraph
    target: TargetDistribution


@dataclass
class TrainResult:
    history: list  # (epoch, train_loss, val_loss)
    best_epoch: int
    best_val: float


def train_model(model: GraphNet, examples: list[TrainExample],
                val_examples: list[TrainExample] | None = None,
                cfg: TrainingConfig | None = None) -> TrainResult:
    """Seeded mini-batch training; keeps the parameters of the best
    validation epoch (training loss when no validation set is given)."""
    cfg = cfg or TrainingConfig()
    if not examples:
        raise EmptyPool("no training examples")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.params)
    val = val_examples if val_examples else examples
    val_batch = make_batch([e.graph for e in val])
    val_targets = [e.target for e in val]

    history = []
    best_val = np.inf
    best_epoch = -1
    best_params = None
    best_running = None
    epoch0 = batch_loss(model, val_batch, val_targets)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        train_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            chunk = [examples[i] for i in order[start: start + cfg.batch_size]]
            batch = make_batch([e.graph for e in chunk])
            loss, grads = batch_loss_and_grads(model, batch, [e.target for e in chunk])
            adam_step(model.params, grads, state, lr=cfg.lr,
                      beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
            train_loss += loss
            n_batches += 1
        train_loss /= max(n_batches, 1)
        if (epoch + 1) % cfg.val_every == 0 or epoch == cfg.epochs - 1:
            val_loss = batch_loss(model, val_batch, val_targets)
        else:
            val_loss = np.nan
        history.append((epoch, train_loss, val_loss))
        if np.isfinite(val_loss) and val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
            best_running = {k: v.copy() for k, v in model.running.items()}
    if best_params is not None:
        model.params = best_params
        model.running = best_running
    history.insert(0, (-1, epoch0, epoch0))
    return TrainResult(history=history, best_epoch=best_epoch, best_val=best_val)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_model(model: GraphNet, path) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "feature_version": FEATURE_VERSION,
        "hidden": model.hidden,
        "n_bits": model.n_bits,
        "n_var_feats": model.n_var_feats,
        "n_cons_feats": model.n_cons_feats,
    }
    arrays = {f"p_{k}": v for k, v in model.params.items()}
    arrays.update({f"r_{k}": v for k, v in model.running.items()})
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_model(path) -> GraphNet:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT or meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint: {meta.get('format')} v{meta.get('version')}")
        if meta.get("feature_version") != FEATURE_VERSION:
            raise ValueError(
                f"checkpoint feature set {meta.get('feature_version')} does not match {FEATURE_VERSION}"
            )
        model = GraphNet(
            n_var_feats=meta["n_var_feats"], n_cons_feats=meta["n_cons_feats"],
            hidden=meta["hidden"], n_bits=meta["n_bits"],
        )
        model.params = {k[2:]: data[k].copy() for k in data.files if k.startswith("p_")}
        model.running = {k[2:]: data[k].copy() for k in data.files if k.startswith("r_")}
    return model
