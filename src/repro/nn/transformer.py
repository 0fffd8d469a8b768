"""Transformer block and the LLaMA-style causal language model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import functional as F
from repro.nn.attention import AttentionCapture, MultiHeadAttention
from repro.nn.config import LlamaConfig
from repro.nn.kvcache import PagedKVCache, RaggedView
from repro.nn.modules import Embedding, Linear, Module, RMSNorm

__all__ = ["SwiGLU", "TransformerBlock", "LlamaModel"]


class SwiGLU(Module):
    """LLaMA feed-forward block ``down( silu(gate(x)) * up(x) )``."""

    def __init__(
        self, d_model: int, d_ff: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gate_proj = Linear(d_model, d_ff, rng=rng)
        self.up_proj = Linear(d_model, d_ff, rng=rng)
        self.down_proj = Linear(d_ff, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Gated feed-forward transform (autograd path)."""
        gate = ops.silu(self.gate_proj(x))
        return self.down_proj(ops.mul(gate, self.up_proj(x)))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Gated feed-forward transform (numpy path)."""
        gate = F.silu(self.gate_proj.forward_array(x))
        return self.down_proj.forward_array(gate * self.up_proj.forward_array(x))


class TransformerBlock(Module):
    """Pre-norm block: attention and SwiGLU with residual connections."""

    def __init__(
        self, config: LlamaConfig, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        self.self_attn = MultiHeadAttention(
            config.d_model,
            config.n_heads,
            config.max_seq_len,
            rope_base=config.rope_base,
            rng=rng,
        )
        self.post_attn_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        self.mlp = SwiGLU(config.d_model, config.d_ff, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Attention + MLP with residuals (autograd path)."""
        x = ops.add(x, self.self_attn(self.input_norm(x)))
        return ops.add(x, self.mlp(self.post_attn_norm(x)))

    def forward_array(
        self, x: np.ndarray, capture: bool = False
    ) -> np.ndarray | tuple[np.ndarray, AttentionCapture]:
        """Attention + MLP with residuals (numpy path, optional capture)."""
        normed = self.input_norm.forward_array(x)
        if capture:
            attn_out, captured = self.self_attn.forward_array(normed, capture=True)
        else:
            attn_out = self.self_attn.forward_array(normed)
        x = x + attn_out
        x = x + self.mlp.forward_array(self.post_attn_norm.forward_array(x))
        if capture:
            return x, captured
        return x


class LlamaModel(Module):
    """Causal language model with tied (optional) output embeddings.

    Three execution paths: :meth:`forward` builds the autograd graph (used
    by the trainer and LLM-QAT); :meth:`forward_array` is a numpy fast path
    used by the evaluation harness and the calibration sweeps;
    :meth:`forward_cached` is the one incremental path over the paged KV
    cache (``generate_cached``, LLM-QAT's data generation, serving).
    """

    def __init__(self, config: LlamaConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self.embed = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.blocks: list[TransformerBlock] = []
        for index in range(config.n_layers):
            block = TransformerBlock(config, rng=rng)
            self.register_module(f"blocks.{index}", block)
            self.blocks.append(block)
        self.final_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        if config.tie_embeddings:
            self.lm_head: Optional[Linear] = None
        else:
            self.lm_head = Linear(config.d_model, config.vocab_size, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> Tensor:
        """Return logits of shape ``(batch, seq, vocab)`` (autograd path)."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed(ids)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x)
        if self.lm_head is not None:
            return self.lm_head(x)
        return ops.matmul(x, ops.transpose(self.embed.weight))

    def forward_array(self, ids: np.ndarray) -> np.ndarray:
        """Return logits of shape ``(batch, seq, vocab)`` (numpy path)."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed.weight.data[ids]
        for block in self.blocks:
            x = block.forward_array(x)
        return self._logits(x)

    def _logits(self, x: np.ndarray) -> np.ndarray:
        """Final norm and output head over the residual stream (numpy)."""
        x = self.final_norm.forward_array(x)
        if self.lm_head is not None:
            return self.lm_head.forward_array(x)
        return x @ self.embed.weight.data.T

    # ------------------------------------------------------------------
    def hidden_states(self, ids: np.ndarray) -> list[np.ndarray]:
        """Residual-stream input of every block plus the final state."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed.weight.data[ids]
        states = [x]
        for block in self.blocks:
            x = block.forward_array(x)
            states.append(x)
        return states

    def loss(self, ids: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean next-token cross-entropy (autograd scalar).

        Routed through the fused :func:`repro.autograd.ops.gather_nll`, so
        no ``(batch, seq, vocab)`` log-prob tensor is materialised; the
        value is bit-identical to the unfused log-softmax-then-gather form.
        """
        logits = self.forward(ids)
        targets = np.atleast_2d(np.asarray(targets))
        return ops.mean(ops.gather_nll(logits, targets))

    # ------------------------------------------------------------------
    # Incremental inference
    # ------------------------------------------------------------------
    def new_cache(self, batch: int = 1) -> PagedKVCache:
        """A KV cache for ``batch`` sequences, one ``max_seq_len`` block each.

        Sequences are allocated as ``"0" .. str(batch - 1)``; pass
        ``cache.ragged_view(cache.seq_ids())`` to :meth:`forward_cached`.
        """
        cache = PagedKVCache(
            len(self.blocks), block_size=self.config.max_seq_len,
            num_blocks=batch,
        )
        for row in range(batch):
            cache.allocate(str(row))
        return cache

    def forward_cached(self, ids: np.ndarray, kv: RaggedView) -> np.ndarray:
        """Feed ``(batch, seq)`` new tokens through the KV cache.

        Row ``b`` extends the sequence ``kv`` maps it to, starting at that
        sequence's cached length — rows may hold different lengths, and
        positions come from the cache alone.  Returns next-token logits
        ``(batch, vocab)``.  Every layer is row-independent, so row ``b``
        is bit-identical to the row extended alone, and on an empty cache
        to :meth:`forward_array` — the properties ``generate_cached``,
        LLM-QAT's self-generated data and the serving worker rest on.
        Extending a sequence past ``max_seq_len`` is rejected (sliding-
        window decoding requires :meth:`generate`).
        """
        ids = np.atleast_2d(np.asarray(ids))
        lengths = kv.lengths
        if ids.shape[1] == 0:
            raise ValueError("input must contain at least one token")
        if len(lengths) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} input rows but the cache view maps "
                f"{len(lengths)} sequences"
            )
        if max(lengths) + ids.shape[1] > self.config.max_seq_len:
            raise ValueError("KV cache is full (max_seq_len reached)")
        x = self.embed.weight.data[ids]
        for index, block in enumerate(self.blocks):
            normed = block.input_norm.forward_array(x)
            x = x + block.self_attn.forward_cached(normed, kv.at_layer(index))
            x = x + block.mlp.forward_array(
                block.post_attn_norm.forward_array(x)
            )
        return self._logits(x)[:, -1, :]

    def generate_cached(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """KV-cached equivalent of :meth:`generate` (O(n) per token).

        Prompt + continuation must fit in ``config.max_seq_len``; use
        :meth:`generate` for sliding-window decoding beyond the context.
        """
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = rng or np.random.default_rng(0)
        prompt = np.asarray(prompt).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        if prompt.size + max_new_tokens > self.config.max_seq_len:
            raise ValueError(
                "prompt plus continuation exceeds the context window"
            )
        cache = self.new_cache()
        kv = cache.ragged_view(cache.seq_ids())
        logits = self.forward_cached(prompt[None, :], kv)
        sequence = list(prompt)
        for _ in range(max_new_tokens):
            row = logits[0]
            if temperature <= 0.0:
                token = int(np.argmax(row))
            else:
                probs = F.softmax(row / temperature)
                token = int(rng.choice(probs.size, p=probs))
            sequence.append(token)
            logits = self.forward_cached(np.array([[token]]), kv)
        return np.asarray(sequence, dtype=np.int64)

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample a continuation of ``prompt`` autoregressively.

        ``prompt`` is a 1-D token-id array; returns prompt + continuation.
        ``temperature=0`` decodes greedily.  The context window slides when
        the sequence exceeds ``config.max_seq_len``.
        """
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = rng or np.random.default_rng(0)
        sequence = list(np.asarray(prompt).reshape(-1))
        if not sequence:
            raise ValueError("prompt must contain at least one token")
        for _ in range(max_new_tokens):
            window = np.asarray(sequence[-self.config.max_seq_len:])
            logits = self.forward_array(window[None, :])[0, -1]
            if temperature <= 0.0:
                token = int(np.argmax(logits))
            else:
                probs = F.softmax(logits / temperature)
                token = int(rng.choice(probs.size, p=probs))
            sequence.append(token)
        return np.asarray(sequence, dtype=np.int64)

    def quantizable_linears(self) -> dict[str, Linear]:
        """All weight matrices the paper quantizes, keyed by dotted name.

        Embeddings and norms stay full precision (as in GPTQ/APTQ); the
        seven matrices per block are q/k/v/o projections and the three
        SwiGLU projections.
        """
        layers: dict[str, Linear] = {}
        for index, block in enumerate(self.blocks):
            attn = block.self_attn
            layers[f"blocks.{index}.self_attn.q_proj"] = attn.q_proj
            layers[f"blocks.{index}.self_attn.k_proj"] = attn.k_proj
            layers[f"blocks.{index}.self_attn.v_proj"] = attn.v_proj
            layers[f"blocks.{index}.self_attn.o_proj"] = attn.o_proj
            layers[f"blocks.{index}.mlp.gate_proj"] = block.mlp.gate_proj
            layers[f"blocks.{index}.mlp.up_proj"] = block.mlp.up_proj
            layers[f"blocks.{index}.mlp.down_proj"] = block.mlp.down_proj
        if self.lm_head is not None:
            layers["lm_head"] = self.lm_head
        return layers
