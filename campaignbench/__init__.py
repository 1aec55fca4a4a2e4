"""Campaign benchmark for the Static Bubble reproduction (see README.md)."""
