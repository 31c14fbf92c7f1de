"""End-to-end voice-serving benchmark (see ``run.py``)."""
