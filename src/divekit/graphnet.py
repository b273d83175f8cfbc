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
differences in the tests) from one table of the dense layers, ``LAYERS``.
Message passing is a sparse product with the two degree-normalized
adjacencies that ``make_batch`` builds once per batch.  Train mode
normalizes by the batch and updates the running batch-norm statistics that
eval mode reads.  Training minimizes the exact KL divergence from the
pooled target distribution to the factorized model, with ADAM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .instances import MilpInstance, SENSE_EQ, SENSE_GE, SENSE_LE, fractionality
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
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: the dense layers in parameter order: (weight, bias, fan-in, fan-out), each
#: fan named by its size: "v"/"c" the variable/constraint feature counts,
#: "hidden" the width and "bits" the heads
LAYERS = (
    ("emb_v_w1", "emb_v_b1", "v", "hidden"),
    ("emb_v_w2", "emb_v_b2", "hidden", "hidden"),
    ("emb_c_w1", "emb_c_b1", "c", "hidden"),
    ("emb_c_w2", "emb_c_b2", "hidden", "hidden"),
    ("conv_vc_w", "conv_vc_b", "hidden", "hidden"),
    ("conv_cv_w", "conv_cv_b", "hidden", "hidden"),
    ("out_w1", "out_b1", "hidden", "hidden"),
    ("out_w2", "out_b2", "hidden", "bits"),
)
_BIAS = {w: b for w, b, _, _ in LAYERS}


class ShapeMismatch(ValueError):
    pass


class EmptyPool(ValueError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


def domain_bits(lo, hi):
    """Head width per domain [lo, hi], elementwise: enough bits for every
    integer in it, and one bit for a domain with an infinite end."""
    finite = np.isfinite(lo) & np.isfinite(hi)
    width = np.floor(np.where(finite, hi, 0.0) - np.where(finite, lo, 0.0) + 0.5) + 1
    return np.maximum(1, np.ceil(np.log2(np.maximum(width, 2)))).astype(np.int64)


def candidate_codec(inst: MilpInstance):
    """What the network predicts for an instance: the candidates (divable
    variables that are not fixed), the integer each one's zero code stands
    for, and its head width.  A code decodes to ``anchor + code``.

    The anchor is the rounded lower bound; with only the upper bound finite
    it is one below the rounded upper bound, and 0 on a free domain, so a
    domain with an infinite end gets a one-bit head next to its finite end.
    """
    cand = inst.candidates()
    lo, hi = inst.lb[cand], inst.ub[cand]
    anchor = np.where(np.isfinite(lo), np.floor(lo + 0.5),
                      np.where(np.isfinite(hi), np.floor(hi + 0.5) - 1.0, 0.0))
    return cand, anchor, domain_bits(lo, hi)


@dataclass
class BipartiteGraph:
    var_feats: np.ndarray
    cons_feats: np.ndarray
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_coef: np.ndarray
    candidates: np.ndarray
    cand_anchor: np.ndarray
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

    up, down, var_deg = inst.column_counts()
    cand, anchor, bits = candidate_codec(inst)
    is_cand = np.zeros(n)
    is_cand[cand] = 1.0
    var_deg = var_deg.astype(np.float64)
    cons_deg = np.bincount(rows, minlength=m).astype(np.float64)

    lb_fin = np.isfinite(inst.lb)
    ub_fin = np.isfinite(inst.ub)
    redcost = duals.y_lb[:n] + duals.y_ub[:n]
    vf = np.column_stack([
        inst.c / (1.0 + np.max(np.abs(inst.c), initial=0.0)),
        lb_fin.astype(np.float64),
        ub_fin.astype(np.float64),
        np.clip(np.where(lb_fin, inst.lb, 0.0), -1e4, 1e4),
        np.clip(np.where(ub_fin, inst.ub, 0.0), -1e4, 1e4),
        inst.integer.astype(np.float64),
        is_cand,
        x,
        fractionality(x),
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

    return BipartiteGraph(
        var_feats=vf,
        cons_feats=cf,
        edge_row=rows.copy(),
        edge_col=cols.copy(),
        edge_coef=(vals / row_norm[rows]).astype(np.float64),
        candidates=cand.astype(np.int64),
        cand_anchor=anchor,
        cand_ub=inst.ub[cand],
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

    def __init__(self, hidden=64, n_bits=1, seed=0):
        self.hidden = hidden
        self.n_bits = n_bits
        rng = np.random.default_rng(seed)
        dims = {"v": len(VAR_FEATURES), "c": len(CONS_FEATURES), "hidden": hidden,
                "bits": n_bits}
        self.params = {}
        self.running = {}
        for t in ("v", "c"):
            self.params[f"bn_{t}_gamma"] = np.ones(dims[t])
            self.params[f"bn_{t}_beta"] = np.zeros(dims[t])
            self.running[f"bn_{t}_mean"] = np.zeros(dims[t])
            self.running[f"bn_{t}_var"] = np.ones(dims[t])
        for w, b, fan_in, fan_out in LAYERS:  # He-normal weights, zero biases
            shape = (dims[fan_in], dims[fan_out])
            self.params[w] = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            self.params[b] = np.zeros(shape[1])

    # -- forward -----------------------------------------------------------

    def _bn(self, raw, prefix, train, cache):
        p, r = self.params, self.running
        if train:
            mu = raw.mean(axis=0) if raw.shape[0] else np.zeros(raw.shape[1])
            var = raw.var(axis=0) if raw.shape[0] else np.ones(raw.shape[1])
            r[f"bn_{prefix}_mean"] = (1 - BN_MOMENTUM) * r[f"bn_{prefix}_mean"] + BN_MOMENTUM * mu
            r[f"bn_{prefix}_var"] = (1 - BN_MOMENTUM) * r[f"bn_{prefix}_var"] + BN_MOMENTUM * var
        else:
            mu, var = r[f"bn_{prefix}_mean"], r[f"bn_{prefix}_var"]
        cache[f"xhat_{prefix}"] = xhat = (raw - mu) / np.sqrt(var + BN_EPS)
        return p[f"bn_{prefix}_gamma"] * xhat + p[f"bn_{prefix}_beta"]

    def _dense(self, layer, x, residual=None):
        """``(residual + x @ W) + b`` for the ``LAYERS`` row of weight ``layer``
        (summed in this order: ``residual + (x @ W + b)`` rounds differently)."""
        z = x @ self.params[layer]
        if residual is not None:
            z = residual + z
        return z + self.params[_BIAS[layer]]

    def forward(self, batch: GraphBatch, train=False):
        """Bernoulli means for every variable node (restrict to candidate
        rows for predictions); returns ``(means, cache)`` with the cache
        populated only in train mode, where the batch-norm running
        statistics are also updated."""
        for kind, feats, names in (("variable", batch.var_feats, VAR_FEATURES),
                                   ("constraint", batch.cons_feats, CONS_FEATURES)):
            if feats.shape[1] != len(names):
                raise ShapeMismatch(f"expected {len(names)} {kind} features, got {feats.shape[1]}")
        cache = {"batch": batch}
        for t, feats in (("v", batch.var_feats), ("c", batch.cons_feats)):
            cache[f"{t}0"] = self._bn(feats, t, train, cache)
            cache[f"{t}1"] = np.maximum(self._dense(f"emb_{t}_w1", cache[f"{t}0"]), 0.0)
            cache[f"{t}2"] = np.maximum(self._dense(f"emb_{t}_w2", cache[f"{t}1"]), 0.0)
        v2, c2 = cache["v2"], cache["c2"]

        agg_c = scatter_messages(batch.to_cons, v2, np.zeros_like(c2))
        c3 = np.maximum(self._dense("conv_vc_w", agg_c, residual=c2), 0.0)

        agg_v = scatter_messages(batch.to_vars, c3, np.zeros_like(v2))
        v3 = np.maximum(self._dense("conv_cv_w", agg_v, residual=v2), 0.0)

        o1 = np.maximum(self._dense("out_w1", v3), 0.0)
        means = _sigmoid(self._dense("out_w2", o1))
        if not train:
            return means, None
        cache.update(agg_c=agg_c, c3=c3, agg_v=agg_v, v3=v3, o1=o1)
        return means, cache

    # -- backward ----------------------------------------------------------

    def _dense_back(self, g, layer, x, dz):
        """Store the gradients of the ``LAYERS`` row of weight ``layer`` in
        ``g`` given its input ``x`` and d(loss)/d(output) ``dz``; returns
        d(loss)/d(x)."""
        g[layer] = x.T @ dz
        g[_BIAS[layer]] = dz.sum(axis=0)
        return dz @ self.params[layer].T

    def backward(self, cache, dlogits):
        """Gradients of every parameter given d(loss)/d(logits)."""
        batch: GraphBatch = cache["batch"]
        g = {}
        o1, v3, c3 = cache["o1"], cache["v3"], cache["c3"]
        do1 = self._dense_back(g, "out_w2", o1, dlogits) * (o1 > 0)
        dv3 = self._dense_back(g, "out_w1", v3, do1) * (v3 > 0)

        dagg_v = self._dense_back(g, "conv_cv_w", cache["agg_v"], dv3)
        dv2 = dv3.copy()  # residual
        dc3 = scatter_messages(batch.to_vars.T, dagg_v, np.zeros_like(c3))
        dc3 *= c3 > 0

        dagg_c = self._dense_back(g, "conv_vc_w", cache["agg_c"], dc3)
        dc2 = dc3.copy()  # residual
        scatter_messages(batch.to_cons.T, dagg_c, dv2)

        for t, d2 in (("v", dv2), ("c", dc2)):
            h1 = cache[f"{t}1"]
            d2 *= cache[f"{t}2"] > 0
            d1 = self._dense_back(g, f"emb_{t}_w2", h1, d2) * (h1 > 0)
            d0 = self._dense_back(g, f"emb_{t}_w1", cache[f"{t}0"], d1)
            g[f"bn_{t}_gamma"] = (d0 * cache[f"xhat_{t}"]).sum(axis=0)
            g[f"bn_{t}_beta"] = d0.sum(axis=0)
        return g

    # -- prediction ----------------------------------------------------------

    def predict(self, graph: BipartiteGraph):
        """The mode assignment and its per-candidate probability.

        Each Bernoulli mean rounds at 0.5 (exact ties to 0).  A candidate
        reads its first ``min(cand_bits, n_bits)`` heads as a little-endian
        code and decodes to ``anchor + code`` capped at its upper bound.
        """
        means, _ = self.forward(make_batch([graph]), train=False)
        cm = means[graph.candidates]
        on = cm > 0.5
        used = np.arange(self.n_bits) < graph.cand_bits[:, None]
        code = (on & used) @ (1 << np.arange(self.n_bits))
        probs = np.prod(np.where(used, np.where(on, cm, 1.0 - cm), 1.0), axis=1)
        return np.minimum(graph.cand_anchor + code, graph.cand_ub), probs


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
    cand, anchor, width = candidate_codec(inst)
    merged = {}
    for x, z in pool_solutions:
        key = tuple(np.rint(np.asarray(x)[cand]).astype(np.int64).tolist())
        merged.setdefault(key, []).append(float(z))
    keys = sorted(merged)
    zs = np.array([min(merged[k]) for k in keys])
    w = np.exp(-(zs - zs.min()) / temperature)
    probs = w / w.sum()
    assigns = np.array(keys, dtype=np.int64).reshape(len(keys), cand.size)
    K = int(n_bits) if n_bits is not None else int(width.max(initial=1))
    # a value beyond its head's range saturates at the head's top
    codes = np.clip(assigns - anchor.astype(np.int64), 0, (1 << width) - 1)
    ks = np.arange(K)
    bits = ((codes[:, :, None] >> ks) & 1).astype(np.float64)
    mask = (ks < width[:, None]).astype(np.float64)
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


def batch_loss_and_grads(model: GraphNet, batch: GraphBatch, targets):
    """Mean KL over the batch and the full parameter gradient dict."""
    means, cache = model.forward(batch, train=True)
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


def adam_step(params, grads, state: AdamState, lr=1e-3, beta1=ADAM_BETA1, beta2=ADAM_BETA2,
              eps=ADAM_EPS):
    """One bias-corrected ADAM update, applied in sorted parameter order; a
    non-finite gradient refuses the step before anything changes."""
    for k in sorted(params):
        if not np.all(np.isfinite(grads[k])):
            raise NonFiniteGradient(f"non-finite gradient in {k}")
    state.t += 1
    t = state.t
    for k in sorted(params):
        gk = grads[k]
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
    epochs: int = 100
    batch_size: int = 16
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
            adam_step(model.params, grads, state, lr=cfg.lr)
            train_loss += loss
            n_batches += 1
        train_loss /= max(n_batches, 1)
        val_loss = batch_loss(model, val_batch, val_targets)
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
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
        "n_var_feats": len(VAR_FEATURES),
        "n_cons_feats": len(CONS_FEATURES),
    }
    arrays = {f"p_{k}": v for k, v in model.params.items()}
    arrays.update({f"r_{k}": v for k, v in model.running.items()})
    with open(path, "wb") as f:  # given a name, np.savez would append ".npz" to it
        np.savez(f, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_model(path) -> GraphNet:
    """The model in the checkpoint at ``path``; a ``ValueError`` naming the
    file and the field refuses any field a fresh model of its size lacks or
    shapes otherwise."""
    def refuse(why):
        return ValueError(f"checkpoint {str(path)!r}: {why}")

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"])) if "meta" in data.files else None
        if not isinstance(meta, dict):
            raise refuse("no meta field holding a JSON object")
        if meta.get("format") != CHECKPOINT_FORMAT or meta.get("version") != CHECKPOINT_VERSION:
            raise refuse(f"unsupported format {meta.get('format')} v{meta.get('version')}")
        if meta.get("feature_version") != FEATURE_VERSION:
            raise refuse(f"feature set {meta.get('feature_version')} does not match "
                         f"{FEATURE_VERSION}")
        counts = [meta.get("n_var_feats"), meta.get("n_cons_feats")]
        if counts != [len(VAR_FEATURES), len(CONS_FEATURES)]:
            raise refuse(f"variable/constraint feature counts {counts} do not match "
                         f"{FEATURE_VERSION}")
        sizes = [meta.get("hidden"), meta.get("n_bits")]
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise refuse(f"hidden/n_bits {sizes} are not positive integers")
        model = GraphNet(hidden=sizes[0], n_bits=sizes[1])
        for prefix, fresh in (("p_", model.params), ("r_", model.running)):
            stored = {k[2:]: data[k] for k in data.files if k.startswith(prefix)}
            if stored.keys() != fresh.keys():
                odd = sorted(prefix + k for k in stored.keys() ^ fresh.keys())
                raise refuse(f"fields {odd} are missing or unknown")
            for k, v in fresh.items():
                if stored[k].shape != v.shape:
                    raise refuse(f"field {prefix}{k} has shape {stored[k].shape}, "
                                 f"expected {v.shape}")
                fresh[k] = stored[k]
    return model
