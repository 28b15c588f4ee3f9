"""Discrete differential forms for distinct counting (system S3).

Implements §4.7 of the paper: snapshot forms (Eq. 7 / Theorem 4.1),
timestamped tracking forms (Eq. 8 / Theorems 4.2-4.3) and the count
function interface shared with the learned models.
"""

from .compiled import CompiledTrackingForm
from .countfn import DirectedEdge, EdgeCountStore, static_count, transient_count
from .sketch import EdgeCountSketch
from .snapshot import SnapshotForm
from .succinct import CompressedTrackingForm, quantize_times
from .tracking import TrackingForm

__all__ = [
    "CompiledTrackingForm",
    "CompressedTrackingForm",
    "DirectedEdge",
    "EdgeCountSketch",
    "EdgeCountStore",
    "SnapshotForm",
    "TrackingForm",
    "quantize_times",
    "static_count",
    "transient_count",
]
