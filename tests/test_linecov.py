"""Tests for tools/linecov.py: its analysis, on a tiny module rather than on the whole of tier-1."""

import importlib.util
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("linecov", TOOLS / "linecov.py")
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SOURCE = textwrap.dedent(
    '''\
    """Module docstring."""
    LIMIT = 3


    def clamp(x):
        """Function docstring."""
        if (  # no line event here: the first code of the statement is on the next line
            x > LIMIT
        ):
            return LIMIT
        return x + 1


    class Box:
        size = 2

        def grow(self):
            return self.size + 1

        def shrink(self):
            """Never called, but a docstring alone is no statement."""
    '''
)


def test_only_the_body_statement_that_never_ran_is_reported(tmp_path):
    path = tmp_path.resolve() / "synthetic.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module and class bodies run here, untraced
    ran = set()
    outer = sys.gettrace()  # the tracer of tools/linecov.py itself, when it runs this test
    sys.settrace(linecov.tracer(str(tmp_path.resolve()), ran))
    try:
        assert module.clamp(1) == 2 and module.Box().grow() == 3
    finally:
        sys.settrace(outer)
    assert linecov.never_run(path, ran) == [f"{path}:10: return LIMIT"]
