"""Tools for the equation w_t = w_xx + 6 w^2 - lambda in complex time.

Equilibrium branches built from cosine series with certified truncation
tails, their linearized spectra and Morse indices, exact integer
resonance certificates, ETDRK4 evolution along complex time rays with
blow-up detection, the scalar polynomial ODE limit with its period
lattices, compactified phase portraits with planar-tree invariants, and
the traveling-wave dictionary.

Each name has one home: import the submodule that defines it, so that a
program loads only what it uses.  For example

    from eternal_kit import elliptic, evolve

    bp = elliptic.branch_point(1, 0.1)
    run = evolve.detect_blowup(evolve.cosine_field(bp.profile, N=128), bp.lam, 1.0)
"""

__version__ = "0.1.0"
