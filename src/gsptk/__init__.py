"""Graph signal processing toolkit.

Spectral-shift construction, graph impulses, polynomial filtering and
convolution dualities, and exact bandlimited sampling/recovery in both the
vertex and graph frequency domains, for arbitrary directed graphs.
"""

from .errors import *
from .graphs import *
from .spectral import *
from .impulses import *
from .filters import *
from .sampling import *
from .dspcompat import *

__version__ = "0.1.0"
