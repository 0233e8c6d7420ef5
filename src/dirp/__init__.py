"""dirp: certified exploration of directional Poincare inequalities on the
torus and diffusion contraction on the circle.

Highlights:
  - exact/interval reals (`CertifiedReal`, `QuadExact`) that decide signs
    of inner products <k, alpha> rigorously;
  - sparse trigonometric polynomials and their Parseval-exact norms;
  - continued fractions and lattice minima;
  - named extremizer families and sharpness tables;
  - a grid diffusion model whose cell masses are exact; its contraction
    factors are float64 values (p = 2 from a float FFT), not enclosures.

Each submodule lists its own public names, and users import from it
(`from dirp.spectral import TrigPoly`); the package binds only
`__version__`.
"""

__version__ = "1.0.0"
