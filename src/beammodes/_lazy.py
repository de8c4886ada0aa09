"""numpy, executed on the first attribute access rather than at import.

Mode periods, regime membership and the quartic scan run on Python floats,
so `import beammodes` and those commands start without numpy; every module
takes `np` from here, and the first array operation (np.asarray, np.linspace,
...) loads it.  An already imported numpy is returned as it is.  The first
access is not guarded against concurrent threads; beammodes starts none.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
