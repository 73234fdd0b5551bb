"""Numerical lab for spectral concentration of smoothed projection differences.

The package measures how the eigenvalues of D_eps = psi_eps(H - lam) -
psi_eps(H0 - lam) pile up as the smoothing scale eps shrinks: counts and
traces grow like |log eps| with slopes given by the scattering data of the
pair (H0, H).  Modules: ``matrices`` (spectral plumbing), ``profiles``
(smoothed steps), ``density`` (the limiting density and its moments),
``hankel`` (the exactly solvable model kernel), ``quadrature`` (the
Gauss-Legendre rule), ``models`` (rank-one scattering model and the
power-law control), ``experiments`` (sweeps and
studies), ``cli``/``report`` (driver and rendering).

The API lives in the modules: import one (``from specdiff import hankel``)
and use the names in its ``__all__``.  Importing the package alone loads
none of them.
"""

__version__ = "0.1.0"
