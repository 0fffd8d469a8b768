"""Multi-head self-attention with rotary position embeddings.

The projection submodules are named ``q_proj``/``k_proj``/``v_proj``/``o_proj``
to match the paper's layer naming ("self_attn.k_proj" in Algorithm 1).

Three forward paths exist:

* :meth:`MultiHeadAttention.forward` — autograd path (training, QAT, and
  the independent verification of the analytic APTQ derivatives);
* :meth:`MultiHeadAttention.forward_array` — fast numpy inference path that
  can additionally *capture* every intermediate the APTQ Hessian
  construction needs (Q, K, V, pre-softmax scores N, attention probs P,
  concatenated head outputs C — cf. paper Eqs. (9)-(15));
* :meth:`MultiHeadAttention.forward_cached` — the one incremental path:
  new tokens of every row attend against that row's history in the paged
  KV cache (:mod:`repro.nn.kvcache`).  Prefill, continuation and the
  continuous-batching decode step of the serving layer all run through it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import functional as F
from repro.nn.modules import Linear, Module

__all__ = [
    "RotaryEmbedding",
    "AttentionCapture",
    "MultiHeadAttention",
]


class RotaryEmbedding:
    """Precomputed cos/sin tables for rotary position embeddings."""

    def __init__(self, d_head: int, max_seq_len: int, base: float = 10000.0):
        self.d_head = d_head
        self.max_seq_len = max_seq_len
        self.base = base
        self.cos, self.sin = F.rope_tables(max_seq_len, d_head, base)

    def tables(self, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Cos/sin tables truncated to ``seq_len`` positions."""
        if seq_len > self.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds table size {self.max_seq_len}"
            )
        return self.cos[:seq_len], self.sin[:seq_len]


@dataclasses.dataclass
class AttentionCapture:
    """Intermediates of one attention forward pass (numpy arrays).

    Shapes use ``b`` batch, ``h`` heads, ``s`` sequence, ``d`` head dim and
    ``D = h*d`` model dim.  These are exactly the quantities appearing in the
    paper's derivative formulas:

    - ``x``: layer input after RMSNorm, (b, s, D) — the paper's Q=K=V inputs.
    - ``q``/``k``: rotated per-head projections, (b, h, s, d).
    - ``v``: per-head value projections, (b, h, s, d).
    - ``scores``: pre-softmax logits N_h = Q W^Q (W^K)^T K^T / sqrt(d), (b, h, s, s).
    - ``probs``: softmax(scores) = P_h, (b, h, s, s).
    - ``heads``: concatenated head outputs Concat(head_1..head_H), (b, s, D).
    - ``output``: attention block output F = heads @ W^O, (b, s, D).
    """

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    heads: np.ndarray
    output: np.ndarray


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (the paper's MultiHead(Q, K, V))."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        max_seq_len: int,
        rope_base: float = 10000.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        rng = rng or np.random.default_rng(0)
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.o_proj = Linear(d_model, d_model, rng=rng)
        self.rope = RotaryEmbedding(self.d_head, max_seq_len, rope_base)

    # ------------------------------------------------------------------
    # Autograd path
    # ------------------------------------------------------------------
    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = ops.reshape(x, (batch, seq, self.n_heads, self.d_head))
        return ops.transpose(x, (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = ops.transpose(x, (0, 2, 1, 3))
        return ops.reshape(x, (batch, seq, self.d_model))

    def _rope_tensor(self, x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
        half = self.d_head // 2
        rotated = ops.concat(
            [ops.neg(x[..., half:]), x[..., :half]], axis=-1
        )
        return ops.add(
            ops.mul(x, Tensor(cos)), ops.mul(rotated, Tensor(sin))
        )

    def forward(self, x: Tensor) -> Tensor:
        """Causal self-attention over ``x`` (autograd path)."""
        batch, seq, _ = x.shape
        cos, sin = self.rope.tables(seq)
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        q = self._rope_tensor(q, cos, sin)
        k = self._rope_tensor(k, cos, sin)
        scale = 1.0 / np.sqrt(self.d_head)
        scores = ops.matmul(q, ops.swapaxes(k, -1, -2)) * scale
        scores = ops.add(scores, Tensor(F.causal_mask(seq)))
        probs = ops.softmax(scores, axis=-1)
        context = ops.matmul(probs, v)
        merged = self._merge_heads(context, batch, seq)
        return self.o_proj(merged)

    # ------------------------------------------------------------------
    # Numpy inference path
    # ------------------------------------------------------------------
    def forward_array(
        self, x: np.ndarray, capture: bool = False
    ) -> np.ndarray | tuple[np.ndarray, AttentionCapture]:
        """Numpy attention; optionally captures per-head internals."""
        batch, seq, _ = x.shape
        cos, sin = self.rope.tables(seq)

        def split(a: np.ndarray) -> np.ndarray:
            return a.reshape(batch, seq, self.n_heads, self.d_head).transpose(
                0, 2, 1, 3
            )

        q = F.apply_rope(split(self.q_proj.forward_array(x)), cos, sin)
        k = F.apply_rope(split(self.k_proj.forward_array(x)), cos, sin)
        v = split(self.v_proj.forward_array(x))
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(self.d_head)
        scores = scores + F.causal_mask(seq)
        probs = F.softmax(scores, axis=-1)
        context = probs @ v
        heads = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        output = self.o_proj.forward_array(heads)
        if not capture:
            return output
        return output, AttentionCapture(
            x=x, q=q, k=k, v=v, scores=scores, probs=probs,
            heads=heads, output=output,
        )

    # ------------------------------------------------------------------
    # Incremental inference over the KV cache
    # ------------------------------------------------------------------
    def forward_cached(self, x: np.ndarray, append_kv) -> np.ndarray:
        """Attend ``seq`` new tokens per row against that row's cached keys.

        ``x`` is ``(batch, seq, d_model)``.  ``append_kv`` is this layer's
        :class:`~repro.nn.kvcache.RaggedView`: row ``b``'s new tokens start
        at ``append_kv.lengths[b]`` (rows may hold different lengths), and
        ``append_kv.append(b, k, v)`` stores the row's rotated keys and
        values ``(1, h, seq, d)`` and returns its full cached history
        ``(1, h, length, d)``.  Each row then attends against its own
        history; the offset causal mask is applied only when ``seq > 1``.

        One method serves prompt prefill, warm continuation and the
        continuous-batching decode step.  Projections, rope and the output
        projection are row-independent and each row's attention has the
        shapes of a batch of one, so row ``b`` is bit-identical to the row
        extended alone — and on an empty cache to :meth:`forward_array`
        (identical rope rows, mask values and reductions), at O(length)
        instead of O(length²) per decoded token.
        """
        batch, seq, _ = x.shape
        starts = append_kv.lengths
        cos, sin = self.rope.tables(max(starts) + seq)
        if min(starts) == max(starts):
            # One shared start (generate_cached, LLM-QAT): a (seq, d_head)
            # slice broadcasts over rows and heads, cheaper per decoded
            # token than gathering per-row tables.
            cos_t, sin_t = cos[-seq:], sin[-seq:]
        else:
            # Ragged rows: per-row tables, (batch, 1, seq, d_head).
            rows = np.asarray(starts)[:, None] + np.arange(seq)
            cos_t, sin_t = cos[rows][:, None], sin[rows][:, None]

        def split(a: np.ndarray) -> np.ndarray:
            return a.reshape(batch, seq, self.n_heads, self.d_head).transpose(
                0, 2, 1, 3
            )

        q = F.apply_rope(split(self.q_proj.forward_array(x)), cos_t, sin_t)
        k = F.apply_rope(split(self.k_proj.forward_array(x)), cos_t, sin_t)
        v = split(self.v_proj.forward_array(x))
        scale = np.sqrt(self.d_head)
        context = np.empty_like(q)
        for row in range(batch):
            keys, values = append_kv.append(
                row, k[row : row + 1], v[row : row + 1]
            )
            scores = q[row : row + 1] @ np.swapaxes(keys, -1, -2) / scale
            if seq > 1:
                # New token i (position start + i) sees keys <= start + i;
                # for start == 0 this is exactly ``F.causal_mask(seq)``.
                blocked = np.full((seq, keys.shape[2]), -np.inf)
                scores = scores + np.triu(blocked, k=starts[row] + 1)
            probs = F.softmax(scores, axis=-1)
            context[row] = (probs @ values)[0]
        heads = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return self.o_proj.forward_array(heads)
