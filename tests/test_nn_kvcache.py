"""The one cached forward must match the full forward pass exactly.

:meth:`~repro.nn.transformer.LlamaModel.forward_cached` over the paged KV
cache (:mod:`repro.nn.kvcache`) is the only incremental inference path:
``generate_cached``, LLM-QAT's self-generated data and the serving worker
all run it, so these parity tests gate serving too.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.config import LlamaConfig
from repro.nn.kvcache import PagedKVCache
from repro.nn.transformer import LlamaModel
from repro.quant.llmqat import generate_self_data


def fresh(model, batch=1):
    """A new cache and the view mapping its rows in order."""
    cache = model.new_cache(batch)
    return cache, cache.ragged_view(cache.seq_ids())


class TestKVCache:
    """The paged cache as a contiguous per-sequence cache (one block each)."""

    def _cache(self, capacity=8):
        cache = PagedKVCache(n_layers=1, block_size=capacity, num_blocks=1)
        cache.allocate("a")
        return cache

    def test_append_grows(self, rng):
        cache = self._cache()
        assert cache.length("a") == 0
        k = rng.normal(size=(1, 2, 1, 4))
        v = rng.normal(size=(1, 2, 1, 4))
        cache.append(0, "a", k, v)
        assert cache.length("a") == 1
        cache.append(0, "a", k, v)
        assert cache.length("a") == 2

    def test_negative_capacity_rejected(self):
        for kwargs in ({"block_size": -1}, {"num_blocks": -1}):
            with pytest.raises(ValueError):
                PagedKVCache(n_layers=1, **kwargs)

    def test_views_match_concatenation(self, rng):
        cache = self._cache()
        expected_k, expected_v = [], []
        for _ in range(5):
            k = rng.normal(size=(1, 3, 1, 4))
            v = rng.normal(size=(1, 3, 1, 4))
            expected_k.append(k)
            expected_v.append(v)
            keys, values = cache.append(0, "a", k, v)
        assert np.array_equal(keys, np.concatenate(expected_k, axis=2))
        assert np.array_equal(values, np.concatenate(expected_v, axis=2))

    def test_preallocated_never_reallocates(self, rng):
        # Filling exactly to capacity must write into one stable pool.
        cache = self._cache(capacity=6)
        k = rng.normal(size=(1, 2, 1, 4))
        cache.append(0, "a", k, k)
        pool_id = id(cache._keys)
        for _ in range(5):
            cache.append(0, "a", k, k)
        assert cache.length("a") == 6
        assert id(cache._keys) == pool_id

    def test_exposed_views_are_read_only(self, rng):
        # A one-block history is a view of the pool: writing through it
        # would corrupt every later step, so it escapes read-only.
        cache = self._cache()
        k = rng.normal(size=(1, 2, 3, 4))
        keys, values = cache.append(0, "a", k, k)
        for view in (keys, values, *cache.gather(0, "a")):
            assert np.shares_memory(view, cache._keys) or np.shares_memory(
                view, cache._values
            )
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0.0

    def test_append_still_writes_after_read_only_views(self, rng):
        # Read-only views must not freeze the pool, and a held view keeps
        # its contents while later tokens land past its end.
        cache = self._cache(capacity=4)
        k1 = rng.normal(size=(1, 1, 1, 2))
        k2 = rng.normal(size=(1, 1, 1, 2))
        held, _ = cache.append(0, "a", k1, k1)
        keys, _ = cache.append(0, "a", k2, k2)
        assert np.array_equal(keys, np.concatenate([k1, k2], axis=2))
        assert np.array_equal(held, k1)

    def test_multi_token_append(self, rng):
        cache = self._cache(capacity=10)
        chunk = rng.normal(size=(1, 2, 4, 3))
        single = rng.normal(size=(1, 2, 1, 3))
        cache.append(0, "a", chunk, chunk)
        assert cache.length("a") == 4
        keys, _ = cache.append(0, "a", single, single)
        assert cache.length("a") == 5
        assert np.array_equal(keys, np.concatenate([chunk, single], axis=2))

    def test_new_cache_has_one_max_len_block_per_row(self, micro_model):
        cache = micro_model.new_cache(3)
        assert cache.seq_ids() == ("0", "1", "2")
        assert cache.num_blocks == 3
        assert cache.block_size == micro_model.config.max_seq_len
        assert cache.n_layers == len(micro_model.blocks)


class TestDecodeStep:
    def test_matches_full_forward(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=12)
        full = model.forward_array(ids[None, :])[0]
        _, kv = fresh(model)
        stepped = [model.forward_cached([[token]], kv)[0] for token in ids]
        for position in range(ids.size):
            assert np.allclose(full[position], stepped[position], atol=1e-10)

    def test_batched_decoding(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(3, 6))
        full = model.forward_array(ids)
        _, kv = fresh(model, 3)
        for position in range(6):
            logits = model.forward_cached(ids[:, position : position + 1], kv)
        assert np.allclose(full[:, -1, :], logits, atol=1e-10)

    def test_cache_overflow_rejected(self, trained_micro_model, rng):
        model = trained_micro_model
        _, kv = fresh(model)
        for _ in range(model.config.max_seq_len):
            model.forward_cached([[5]], kv)
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward_cached([[5]], kv)


class TestPrefill:
    def test_matches_forward_array_on_fresh_cache(
        self, trained_micro_model, rng
    ):
        # On an empty cache the cached forward is the same arithmetic as
        # the full forward pass: identical rope rows, mask values, and
        # reductions.
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(2, 9))
        full = model.forward_array(ids)[:, -1, :]
        cache, kv = fresh(model, 2)
        prefilled = model.forward_cached(ids, kv)
        assert np.array_equal(full, prefilled)
        assert kv.lengths == [9, 9]
        assert cache.length("1", layer=len(model.blocks) - 1) == 9

    def test_matches_single_token_steps(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=8)
        step_cache, step_kv = fresh(model)
        for token in ids:
            stepped = model.forward_cached([[token]], step_kv)
        cache, kv = fresh(model)
        prefilled = model.forward_cached(ids[None, :], kv)
        assert np.allclose(stepped, prefilled, atol=1e-10)
        for layer in range(len(model.blocks)):
            for a, b in zip(
                step_cache.gather(layer, "0"), cache.gather(layer, "0")
            ):
                assert np.allclose(a, b, atol=1e-12)

    def test_warm_cache_continuation(self, trained_micro_model, rng):
        # A chunk on a warm cache (positions offset by the prefix) must
        # agree with the full forward pass over the whole sequence.
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(1, 10))
        _, kv = fresh(model)
        model.forward_cached(ids[:, :4], kv)
        logits = model.forward_cached(ids[:, 4:], kv)
        full = model.forward_array(ids)[:, -1, :]
        assert np.allclose(full, logits, atol=1e-10)
        assert kv.lengths == [10]

    def test_fill_to_exact_max_seq_len(self, trained_micro_model, rng):
        # Exactly filling the window is legal; one more token is not.
        model = trained_micro_model
        max_len = model.config.max_seq_len
        ids = rng.integers(4, 256, size=(1, max_len))
        _, kv = fresh(model)
        model.forward_cached(ids, kv)
        assert kv.lengths == [max_len]
        with pytest.raises(ValueError):
            model.forward_cached([[5]], kv)
        with pytest.raises(ValueError):
            model.forward_cached([[5, 6]], kv)
        # A rejected call wrote nothing.
        assert kv.lengths == [max_len]

    def test_empty_prompt_rejected(self, trained_micro_model):
        model = trained_micro_model
        _, kv = fresh(model)
        with pytest.raises(ValueError):
            model.forward_cached(np.empty((1, 0), dtype=int), kv)

    def test_rows_must_match_cache_view(self, trained_micro_model):
        model = trained_micro_model
        _, kv = fresh(model, 2)
        with pytest.raises(ValueError, match="maps 2 sequences"):
            model.forward_cached([[5]], kv)
        assert kv.lengths == [0, 0]


RAGGED_CONFIG = LlamaConfig(
    vocab_size=53, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=24
)


class TestRaggedRows:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        prefixes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        chunk=st.integers(1, 6),
    )
    def test_ragged_rows_extended_together_equal_each_alone(
        self, seed, prefixes, chunk
    ):
        # Rows holding different cached lengths, extended by one chunk in
        # one batched call, equal each row extended alone, bitwise.
        model = LlamaModel(RAGGED_CONFIG, seed=0)
        rng = np.random.default_rng(seed)
        vocab = RAGGED_CONFIG.vocab_size
        prompts = [rng.integers(0, vocab, size=n) for n in prefixes]
        chunks = rng.integers(0, vocab, size=(len(prefixes), chunk))
        cache, kv = fresh(model, len(prefixes))
        for row, prompt in enumerate(prompts):
            model.forward_cached(prompt[None, :], cache.ragged_view([str(row)]))
        together = model.forward_cached(chunks, kv)
        for row, prompt in enumerate(prompts):
            _, alone_kv = fresh(model)
            model.forward_cached(prompt[None, :], alone_kv)
            alone = model.forward_cached(chunks[row : row + 1], alone_kv)
            np.testing.assert_array_equal(together[row], alone[0])
        assert kv.lengths == [n + chunk for n in prefixes]


class TestGenerateCached:
    def test_greedy_matches_uncached(self, trained_micro_model, rng):
        prompt = rng.integers(4, 256, size=6)
        a = trained_micro_model.generate(prompt, 10, temperature=0.0)
        b = trained_micro_model.generate_cached(prompt, 10, temperature=0.0)
        assert np.array_equal(a, b)

    def test_sampling_matches_uncached_with_same_rng(
        self, trained_micro_model, rng
    ):
        prompt = rng.integers(4, 256, size=4)
        a = trained_micro_model.generate(
            prompt, 8, temperature=0.9, rng=np.random.default_rng(5)
        )
        b = trained_micro_model.generate_cached(
            prompt, 8, temperature=0.9, rng=np.random.default_rng(5)
        )
        assert np.array_equal(a, b)

    def test_context_overflow_rejected(self, trained_micro_model, rng):
        max_len = trained_micro_model.config.max_seq_len
        prompt = rng.integers(4, 256, size=max_len)
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(prompt, 1)

    def test_validation(self, trained_micro_model):
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(np.array([1]), -1)
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(np.array([], dtype=int), 2)


class TestSelfDataPin:
    # Recorded from the batched-decode implementation this cached path
    # replaced; LLM-QAT's data-free corpus must not move by a bit.
    PINNED = "98340063b5b5a2007d78114674bfcf11571e0a1d69a1d1d408f61802341e3daa"

    def test_generate_self_data_digest(self, trained_micro_model):
        data = np.ascontiguousarray(
            generate_self_data(trained_micro_model, 4, 12, seed=1)
        )
        digest = hashlib.sha256()
        digest.update(str(data.dtype).encode())
        digest.update(str(data.shape).encode())
        digest.update(data.tobytes())
        assert digest.hexdigest() == self.PINNED
