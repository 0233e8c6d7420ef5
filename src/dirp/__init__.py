"""dirp: certified exploration of directional Poincare inequalities on the
torus and diffusion contraction on the circle.

Highlights:
  - exact/interval reals (`CertifiedReal`, `QuadExact`) that decide signs
    of inner products <k, alpha> rigorously;
  - sparse trigonometric polynomials and their Parseval-exact norms;
  - continued fractions, lattice minima, Hurwitz witnesses;
  - named extremizer families and sharpness tables;
  - a grid diffusion model with exact p = 2 contraction factors.

Each submodule lists its own public names, and users import from it
(`from dirp.spectral import TrigPoly`); the package binds only
`__version__`.
"""

__version__ = "1.0.0"
