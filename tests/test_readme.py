"""The README's command-line block, run one line at a time in a fresh
directory with `python -m tatevec` standing for `tatevec`."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import tatevec

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines():
    """The commands of the README's `sh` block that runs `tatevec gen`, comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    block = next(b for b in blocks if "tatevec gen" in b)
    lines = [re.sub(r"\s+#.*", "", line).strip() for line in block.splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_cli_block(tmp_path):
    tatevec_cmd = f"{shlex.quote(sys.executable)} -m tatevec "
    src = str(Path(tatevec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = {}
    for line in _cli_lines():
        if line.startswith("tatevec check --suite"):
            continue  # TestCheckCommand.test_suite_green runs the suites
        # `tatevec` at the start of the line or of a piped command
        cmd = re.sub(r"(^|\| )tatevec ", lambda m: m.group(1) + tatevec_cmd, line)
        proc = subprocess.run(cmd, shell=True, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (line, proc.stdout, proc.stderr)
        out[line] = proc.stdout
    assert json.loads(out["tatevec tensor --op star --depth 3 ps.json ps.json"])["dims"] == [1, 4, 9]
