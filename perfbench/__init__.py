"""Decode benchmark for speccast; run.py is the entry point."""
