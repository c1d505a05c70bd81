"""Conditional sampling from a fitted Gaussian copula.

A practical capability the copula representation gives almost for free:
fix the values of some attributes and draw the remaining ones from their
conditional distribution.  Downstream users employ this for DP imputation
("fill in plausible incomes for these demographic rows") and for
scenario generation ("synthesize only records with age in their 30s").

Mechanics: in the latent Gaussian space, conditioning is exact —
``Z_B | Z_A = a ~ N(P_BA P_AA⁻¹ a,  P_BB − P_BA P_AA⁻¹ P_AB)``.
The fixed attributes map to latent values through their DP marginal CDFs
(midpoint-corrected probit), the free attributes are drawn from the
conditional Gaussian and pushed back through the inverse DP margins.
Everything operates on already-released DP state, so conditional
sampling is pure post-processing.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Dataset, Schema
from repro.stats.copula_math import cholesky_factor
from repro.stats.ecdf import HistogramCDF
from repro.utils import RngLike, as_generator, check_int_at_least, check_matrix_square

_PROBIT_CLIP = 1e-9


class ConditionalCopulaSampler:
    """Conditional sampler over a (DP) Gaussian-copula model.

    Parameters
    ----------
    correlation:
        The (released) copula correlation matrix ``P̃``.
    margins:
        The (released) marginal distributions ``F̃_j``.
    schema:
        Output schema.
    """

    def __init__(
        self,
        correlation: np.ndarray,
        margins: Sequence[HistogramCDF],
        schema: Schema,
    ):
        # The engine builds on core, so its plan is imported at call time.
        from repro.engine.plan import SamplerPlan

        self.correlation = check_matrix_square("correlation", correlation)
        self.margins = list(margins)
        self.schema = schema
        # Building the plan checks every margin against the schema, so
        # the ``given`` branch never samples a truncated domain either.
        self._plan = SamplerPlan(self.correlation, self.margins, schema)

    @classmethod
    def from_synthesizer(cls, synthesizer) -> "ConditionalCopulaSampler":
        """Build from a fitted DPCopula synthesizer."""
        if not synthesizer.is_fitted:
            raise ValueError("synthesizer must be fitted first")
        return cls(
            synthesizer.correlation_,
            synthesizer.margins_.cdfs,
            synthesizer.schema_,
        )

    def _latent_of(self, index: int, value: int) -> float:
        """Latent Gaussian coordinate of a fixed attribute value."""
        u = float(self.margins[index](np.asarray([value]))[0])
        u = min(max(u, _PROBIT_CLIP), 1.0 - _PROBIT_CLIP)
        return float(sps.norm.ppf(u))

    def sample(
        self,
        n: int,
        given: Optional[Dict[str, int]] = None,
        rng: RngLike = None,
    ) -> Dataset:
        """Draw ``n`` records with the ``given`` attributes held fixed.

        ``given`` maps attribute names to the fixed integer values;
        an empty/None ``given`` degenerates to unconditional sampling.
        """
        check_int_at_least("n", n, 1)
        gen = as_generator(rng)
        m = self.schema.dimensions
        given = dict(given or {})

        fixed_indices = []
        fixed_values = []
        for name, value in given.items():
            index = self.schema.index_of(name)
            attribute = self.schema[index]
            if not 0 <= int(value) < attribute.domain_size:
                raise ValueError(
                    f"value {value} outside the domain of {name!r} "
                    f"[0, {attribute.domain_size})"
                )
            fixed_indices.append(index)
            fixed_values.append(int(value))
        free_indices = [j for j in range(m) if j not in set(fixed_indices)]

        if not fixed_indices:
            return self._plan.sample(n, gen)
        ordered = np.empty((n, m), dtype=np.int64)
        ordered[:, fixed_indices] = fixed_values
        if not free_indices:
            return Dataset(ordered, self.schema)

        a = np.asarray(fixed_indices)
        b = np.asarray(free_indices)
        p_aa = self.correlation[np.ix_(a, a)]
        p_ba = self.correlation[np.ix_(b, a)]
        p_bb = self.correlation[np.ix_(b, b)]

        latent_fixed = np.asarray(
            [self._latent_of(j, v) for j, v in zip(fixed_indices, fixed_values)]
        )
        solve_aa = np.linalg.solve(p_aa, latent_fixed)
        conditional_mean = p_ba @ solve_aa
        conditional_cov = p_bb - p_ba @ np.linalg.solve(p_aa, p_ba.T)
        conditional_cov = (conditional_cov + conditional_cov.T) / 2.0
        # Eigenvalue floor (without diagonal renormalization — the
        # conditional variances are meaningful) keeps the factorization valid.
        cholesky = cholesky_factor(conditional_cov, repair="covariance")
        latent_free = (
            conditional_mean[None, :]
            + gen.standard_normal((n, b.size)) @ cholesky.T
        )
        inverter = BatchedMarginInverter([self.margins[j] for j in free_indices])
        ordered[:, free_indices] = inverter(sps.norm.cdf(latent_free))
        return Dataset(ordered, self.schema)
