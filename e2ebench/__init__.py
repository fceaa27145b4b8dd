"""End-to-end reproduction benchmark; entry point and design notes in ``run.py``."""
