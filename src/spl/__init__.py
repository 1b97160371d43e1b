"""spl: a desk-scale laboratory for large prime factors of shifted primes."""

__version__ = "0.1.0"
