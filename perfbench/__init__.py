"""The PhishingHook end-to-end benchmark (see ``perfbench/run.py``)."""
