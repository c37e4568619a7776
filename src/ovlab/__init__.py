"""Desk-scale laboratory for an open-vocabulary classification head that
learns background prompts: latent background categories are discovered by
clustering, represented with learnable context vectors, mined online via
pseudo-labels, and reconciled with revealed novel categories at inference
through probability rectification. Every formula is backed by brute-force
oracles and gradient checks over synthetic embedding scenarios. Each name is
imported from its module, e.g. ``from ovlab.trainer import train``."""

__version__ = "0.1.0"
