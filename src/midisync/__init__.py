"""midisync: boundary-synchronized symbolic music toolkit.

Pipeline pieces, in data-flow order:

* :mod:`midisync.tokens` — event vocabulary (1411 entries)
* :mod:`midisync.midi_codec` — SMF parsing/writing and token codec
* :mod:`midisync.chords` — chord detection and CHORD-token handling
* :mod:`midisync.scheduler` — boundary-offset scheduling (the per-token
  rule and its one NumPy batch kernel)
* :mod:`midisync.emotion` — categorical emotions to valence/arousal
* :mod:`midisync.scenes` — scene-cut ingestion and gap filtering
* :mod:`midisync.generator` — grammar-constrained generation
* :mod:`midisync.config` — shared tunables
* :mod:`midisync.cli` — command-line front end
"""

from .config import PipelineConfig

__version__ = "0.1.0"
OFFSETS_BACKEND = "numpy"  # no longer a choice; kept because perfbench/baseline.py records it
__all__ = ["PipelineConfig", "OFFSETS_BACKEND", "__version__"]
