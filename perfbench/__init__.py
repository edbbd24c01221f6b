"""End-to-end benchmark of the MD and serving stack (see ``run.py``)."""
