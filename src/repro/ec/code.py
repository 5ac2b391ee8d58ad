"""Arbitrary linear erasure codes (Definitions 1-4 of the paper).

A :class:`LinearCode` C(N, K, F) assigns to each of ``N`` servers an encoding
function Phi_s: V^K -> W_s, where V = F^vlen is the object-value space and
W_s = V^{r_s}.  Each Phi_s is specified by an (r_s x K) coefficient matrix
G_s over F: the j-th stored symbol at server s is ``sum_k G_s[j,k] * x_k``.

This representation covers every scheme the paper discusses:

* replication / partial replication (rows of G_s are unit vectors),
* intra-group Reed--Solomon (G_s rows are MDS-generator rows),
* cross-object codes such as Example 1's (5,3) code and the 6-DC code of
  Sec. 1.1 (rows mix several objects).

The class exposes exactly the primitives CausalEC consumes:

* ``objects_at(s)`` -- the set X_s of objects Phi_s depends on (Def. 3),
* ``is_recovery_set(S, k)`` / ``decode(...)`` -- recovery sets and the
  decoding functions Psi (Def. 2),
* ``reencode(s, w, k, old, new)`` -- the re-encoding functions Gamma_{s,k}
  (Def. 4): Gamma(Phi(x), x_k, x'_k) = Phi(x') when x, x' differ only in
  coordinate k.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from . import matrix as fmat
from .field import Field

__all__ = ["LinearCode"]


class LinearCode:
    """A linear code C(N, K, F) given by per-server coefficient matrices.

    Instances are immutable once built: the matrices never change, and the
    recovery-set and coefficient caches only memoise pure functions of
    them.  The class therefore has value semantics -- ``copy.copy`` and
    ``copy.deepcopy`` return the instance itself, so forked protocol states
    and checkpoints share one code instead of duplicating its matrices.
    """

    def __init__(
        self,
        field: Field,
        num_objects: int,
        server_matrices: Sequence[np.ndarray | Sequence[Sequence[int]]],
        value_len: int = 1,
        name: str = "linear-code",
    ):
        if num_objects < 1:
            raise ValueError("need at least one object")
        if value_len < 1:
            raise ValueError("value_len must be positive")
        self.field = field
        self.K = num_objects
        self.N = len(server_matrices)
        self.value_len = value_len
        self.name = name
        mats: list[np.ndarray] = []
        for s, g in enumerate(server_matrices):
            arr = np.array(g, dtype=field.dtype)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if arr.ndim != 2 or arr.shape[1] != num_objects:
                raise ValueError(
                    f"server {s}: expected matrix with {num_objects} columns, "
                    f"got shape {arr.shape}"
                )
            mats.append(field.validate(arr))
        self.matrices = mats
        self._objects_at = [
            frozenset(int(k) for k in range(self.K) if np.any(g[:, k]))
            for g in mats
        ]
        # per-server nonzero-column structure: encode only touches the
        # objects a server actually mixes (X_s), as a single compact matmul
        self._nz_cols = [np.flatnonzero(np.any(g, axis=0)) for g in mats]
        self._g_nz = [g[:, cols] for g, cols in zip(mats, self._nz_cols)]
        self._stacked_g = (
            np.vstack(mats)
            if mats
            else np.zeros((0, num_objects), dtype=field.dtype)
        )
        self._row_offsets = np.concatenate(
            ([0], np.cumsum([g.shape[0] for g in mats]))
        ).astype(int)
        self._recovery_cache: dict[tuple[frozenset[int], int], bool] = {}
        self._coeff_cache: dict[tuple[tuple[int, ...], int], np.ndarray | None] = {}
        self._minimal_cache: dict[int, list[frozenset[int]]] = {}

    # ------------------------------------------------------------------
    # structure

    def symbols_at(self, s: int) -> int:
        """r_s: number of stored symbols (rows of G_s) at server ``s``."""
        return self.matrices[s].shape[0]

    def objects_at(self, s: int) -> frozenset[int]:
        """X_s: the objects server ``s``'s encoding function depends on."""
        return self._objects_at[s]

    def storage_fraction(self, s: int) -> float:
        """Stored symbols at ``s`` as a fraction of one object value."""
        return self.symbols_at(s) / 1.0

    def zero_symbol(self, s: int) -> np.ndarray:
        """The all-zero codeword symbol for server ``s`` (shape r_s x vlen)."""
        return np.zeros((self.symbols_at(s), self.value_len), dtype=self.field.dtype)

    def zero_value(self) -> np.ndarray:
        """The zero object value in V."""
        return self.field.zeros(self.value_len)

    # ------------------------------------------------------------------
    # encoding and re-encoding

    def _value_row(self, k: int, v: np.ndarray) -> np.ndarray:
        arr = np.asarray(v, dtype=self.field.dtype)
        if arr.shape != (self.value_len,):
            raise ValueError(
                f"object {k}: value has shape {arr.shape}, "
                f"expected ({self.value_len},)"
            )
        return arr

    def _values_matrix(
        self, values: Sequence[np.ndarray], cols: Iterable[int]
    ) -> np.ndarray:
        rows = [self._value_row(k, values[k]) for k in cols]
        if not rows:
            return np.zeros((0, self.value_len), dtype=self.field.dtype)
        return np.stack(rows)

    def encode(self, s: int, values: Sequence[np.ndarray]) -> np.ndarray:
        """Phi_s applied to the K object values (each a length-vlen vector).

        A single compact field-matmul over the server's nonzero columns.
        """
        if len(values) != self.K:
            raise ValueError(f"expected {self.K} object values")
        rows = [self._value_row(k, values[k]) for k in range(self.K)]
        cols = self._nz_cols[s]
        if not cols.size:
            return self.zero_symbol(s)
        return self.field.matmul(self._g_nz[s], np.stack([rows[k] for k in cols]))

    def encode_all(self, values: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Phi_s for every server at once, via one stacked field-matmul.

        Returns a list of independent (r_s, value_len) symbol arrays; used by
        write paths that fan a fresh codeword out to all N servers.
        """
        if len(values) != self.K:
            raise ValueError(f"expected {self.K} object values")
        prod = self.field.matmul(
            self._stacked_g, self._values_matrix(values, range(self.K))
        )
        off = self._row_offsets
        return [prod[off[s] : off[s + 1]].copy() for s in range(self.N)]

    def _encode_reference(self, s: int, values: Sequence[np.ndarray]) -> np.ndarray:
        """Pre-kernel scalar-loop Phi_s (ground truth for property tests)."""
        if len(values) != self.K:
            raise ValueError(f"expected {self.K} object values")
        g = self.matrices[s]
        f = self.field
        out = self.zero_symbol(s)
        for j in range(g.shape[0]):
            for k in range(self.K):
                c = int(g[j, k])
                if c:
                    v = values[k]
                    for t in range(self.value_len):
                        out[j, t] = f.s_add(
                            int(out[j, t]), f.s_mul(c, int(v[t]))
                        )
        return out

    def reencode(
        self,
        s: int,
        symbol: np.ndarray,
        k: int,
        old_value: np.ndarray,
        new_value: np.ndarray,
    ) -> np.ndarray:
        """Gamma_{s,k}: swap object k's contribution from old to new value.

        Satisfies Definition 4: for symbol = Phi_s(x) with x_k = old_value,
        the result is Phi_s(x') where x' replaces coordinate k by new_value.
        Passing ``old_value = 0`` applies the new value on top (the "apply"
        step); passing ``new_value = 0`` cancels the old contribution (the
        "remove" step).
        """
        sym = self._check_symbol(s, symbol)
        delta = self.field.sub(
            self._value_row(k, new_value), self._value_row(k, old_value)
        )
        col = self.matrices[s][:, k]
        if self.field.is_zero(delta) or not col.any():
            return sym.copy()
        return self.field.axpy(col, delta, sym)

    def reencode_many(
        self,
        s: int,
        symbol: np.ndarray,
        updates: Iterable[tuple[int, np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Apply several Gamma_{s,k} steps as one batched kernel call.

        ``updates`` is an iterable of ``(k, old_value, new_value)`` triples;
        the result equals chaining :meth:`reencode` over them in order (the
        deltas commute), but costs a single field-matmul.
        """
        sym = self._check_symbol(s, symbol)
        g = self.matrices[s]
        ks: list[int] = []
        deltas: list[np.ndarray] = []
        for k, old_value, new_value in updates:
            d = self.field.sub(
                self._value_row(k, new_value), self._value_row(k, old_value)
            )
            if self.field.is_zero(d) or not g[:, k].any():
                continue
            ks.append(int(k))
            deltas.append(d)
        if not ks:
            return sym.copy()
        update = self.field.matmul(g[:, ks], np.stack(deltas))
        return self.field.add(sym, update)

    def _reencode_reference(
        self,
        s: int,
        symbol: np.ndarray,
        k: int,
        old_value: np.ndarray,
        new_value: np.ndarray,
    ) -> np.ndarray:
        """Pre-kernel scalar-loop Gamma_{s,k} (ground truth for tests)."""
        g = self.matrices[s]
        f = self.field
        out = np.array(symbol, dtype=f.dtype, copy=True)
        for j in range(g.shape[0]):
            c = int(g[j, k])
            if c:
                for t in range(self.value_len):
                    d = f.s_sub(int(new_value[t]), int(old_value[t]))
                    out[j, t] = f.s_add(int(out[j, t]), f.s_mul(c, d))
        return out

    def _check_symbol(self, s: int, symbol: np.ndarray) -> np.ndarray:
        sym = np.asarray(symbol, dtype=self.field.dtype)
        expected = (self.symbols_at(s), self.value_len)
        if sym.shape != expected:
            raise ValueError(
                f"server {s}: symbol has shape {sym.shape}, "
                f"expected {expected} (r_s, value_len)"
            )
        return sym

    # ------------------------------------------------------------------
    # recovery sets and decoding

    def _stack(self, servers: Sequence[int]) -> np.ndarray:
        rows = [self.matrices[s] for s in servers]
        if not rows:
            return np.zeros((0, self.K), dtype=self.field.dtype)
        return np.vstack(rows)

    def is_recovery_set(self, servers: Iterable[int], k: int) -> bool:
        """True iff object k is decodable from the symbols at ``servers``.

        Definition 2: S is a recovery set for object k iff the unit vector
        e_k lies in the row space of the stacked coefficient matrices G_S.
        """
        key = (frozenset(int(s) for s in servers), int(k))
        if key not in self._recovery_cache:
            self._recovery_cache[key] = (
                self._decoding_coefficients(tuple(sorted(key[0])), k) is not None
            )
        return self._recovery_cache[key]

    def _decoding_coefficients(
        self, servers: tuple[int, ...], k: int
    ) -> np.ndarray | None:
        key = (servers, int(k))
        if key not in self._coeff_cache:
            stacked = self._stack(servers)
            e_k = np.zeros(self.K, dtype=self.field.dtype)
            e_k[k] = 1
            self._coeff_cache[key] = fmat.solve_left(self.field, stacked, e_k)
        return self._coeff_cache[key]

    def decode(
        self, k: int, symbols: Mapping[int, np.ndarray]
    ) -> np.ndarray | None:
        """Psi: recover object k's value from server->symbol map, or None.

        ``symbols`` maps server ids to their codeword-symbol values (all
        encodings of the *same* object-value vector).  Returns None when the
        provided servers do not form a recovery set for object k.  Each
        symbol must have shape (r_s, value_len); anything else (transposed,
        truncated, flattened) raises ``ValueError``.
        """
        servers = tuple(sorted(symbols))
        stacked = self._stack_symbols(servers, symbols)
        lam = self._decoding_coefficients(servers, k)
        if lam is None:
            return None
        nz = np.flatnonzero(lam)
        if not nz.size:
            return self.field.zeros(self.value_len)
        return self.field.matmul(lam[nz].reshape(1, -1), stacked[nz])[0]

    def decode_many(
        self, ks: Sequence[int], symbols: Mapping[int, np.ndarray]
    ) -> list[np.ndarray] | None:
        """Recover several objects from one symbol set with one field-matmul.

        Returns the decoded values aligned with ``ks``, or None when any
        requested object is not recoverable from the provided servers.
        """
        servers = tuple(sorted(symbols))
        stacked = self._stack_symbols(servers, symbols)
        lams = []
        for k in ks:
            lam = self._decoding_coefficients(servers, k)
            if lam is None:
                return None
            lams.append(lam)
        if not lams:
            return []
        out = self.field.matmul(np.stack(lams), stacked)
        return [out[i] for i in range(len(lams))]

    def _stack_symbols(
        self, servers: Sequence[int], symbols: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        checked = [self._check_symbol(s, symbols[s]) for s in servers]
        if not checked:
            return np.zeros((0, self.value_len), dtype=self.field.dtype)
        return np.vstack(checked)

    def _decode_reference(
        self, k: int, symbols: Mapping[int, np.ndarray]
    ) -> np.ndarray | None:
        """Pre-kernel scalar-loop Psi (ground truth for property tests)."""
        servers = tuple(sorted(symbols))
        lam = self._decoding_coefficients(servers, k)
        if lam is None:
            return None
        f = self.field
        out = f.zeros(self.value_len)
        idx = 0
        for s in servers:
            sym = symbols[s]
            for j in range(self.symbols_at(s)):
                c = int(lam[idx])
                if c:
                    for t in range(self.value_len):
                        out[t] = f.s_add(int(out[t]), f.s_mul(c, int(sym[j][t])))
                idx += 1
        return out

    def recovery_servers(self, k: int) -> frozenset[int]:
        """Servers that participate in at least one minimal recovery set."""
        return frozenset(s for t in self.minimal_recovery_sets(k) for s in t)

    def minimal_recovery_sets(self, k: int) -> list[frozenset[int]]:
        """All minimal (under inclusion) recovery sets for object k.

        Enumerates subsets by increasing size; a set is kept iff it is a
        recovery set and no kept set is a proper subset of it.  Intended for
        the small N the paper's examples use.
        """
        if k not in self._minimal_cache:
            from itertools import combinations

            minimal: list[frozenset[int]] = []
            for size in range(1, self.N + 1):
                for combo in combinations(range(self.N), size):
                    cand = frozenset(combo)
                    if any(m <= cand for m in minimal):
                        continue
                    if self.is_recovery_set(cand, k):
                        minimal.append(cand)
            self._minimal_cache[k] = minimal
        return list(self._minimal_cache[k])

    def is_mds(self) -> bool:
        """True iff every K servers' symbols recover every object.

        Only meaningful for codes with one symbol per server (r_s = 1); this
        is the maximum-distance-separable property of, e.g., Reed--Solomon.
        """
        from itertools import combinations

        if any(self.symbols_at(s) != 1 for s in range(self.N)):
            return False
        for combo in combinations(range(self.N), min(self.K, self.N)):
            for k in range(self.K):
                if not self.is_recovery_set(combo, k):
                    return False
        return True

    def __copy__(self) -> "LinearCode":
        return self

    def __deepcopy__(self, memo) -> "LinearCode":
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinearCode(name={self.name!r}, N={self.N}, K={self.K}, "
            f"field={self.field!r})"
        )
