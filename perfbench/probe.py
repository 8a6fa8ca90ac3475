"""Cold start of the command line: import ``fracqsl.cli``, answer one ml query.

Run in a fresh interpreter with the package on ``PYTHONPATH``; prints one
JSON line with the import time, the first query's time and its output.
"""

import io
import json
from contextlib import redirect_stdout
from time import perf_counter

start = perf_counter()
import fracqsl.cli as cli  # noqa: E402

imported = perf_counter()
buf = io.StringIO()
with redirect_stdout(buf):
    status = cli.main(["ml", "-1.5", "--beta", "0.8"])
done = perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "first_query_s": done - imported,
    "status": status,
    "output": buf.getvalue(),
    "module": cli.__file__,
}))
