"""nantree benchmark and its outside-in tracer; the entry point is run.py."""
