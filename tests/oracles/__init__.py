"""Slow, obviously-correct reference implementations (differential oracles).

Each module mirrors the library module whose fast path it checks:

* :mod:`.modular` — the split-operand modular multiply that the Barrett
  and JIT paths of ``repro.math.modular.modmul_vec`` must match;
* :mod:`.keyswitch` — the per-digit / per-limb key-switch double loop
  behind ``repro.he.keyswitch.key_switch_raw``;
* :mod:`.packing` — the recursive Algorithm 2/3 pack that
  ``repro.he.packing``'s level-order tree must reproduce;
* :mod:`.hmvp` — Algorithm 1 row by row from public primitives, the
  reference for ``repro.core.batch.BatchedHmvp``.

The contract is bit identity per RNS limb, not approximate agreement.
None of this code runs outside the test suite.
"""
