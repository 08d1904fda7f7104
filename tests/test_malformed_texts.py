"""One table of malformed `.gr`, `.td` and `.ptd` texts.

Each is a FormatError from its reader whose message names the fault, its
line for a record, and the file's own 1-based ids; `bdtw verify` exits 2
on it with one `error:` line.  The `.td` rows are read against GR, and a
`.gr` row is given to `verify` as the graph of TD.
"""

import re

import pytest

from bdtw.cli import main
from bdtw.errors import FormatError
from bdtw.graphs import loads_graph
from bdtw.pre_tree import loads_ptd
from bdtw.tree_decomp import loads_td

GR = "p tw 2 1\n1 2\n"
TD = "s td 1 2 2\nb 1 1 2\n"  # a decomposition of GR
# A root with two leaves over an edgeless host.
PTD = "p tw 1 0\nn 0 0 :\nn 1 0 :\nn 2 0 :\ng 0 1 :\ng 1 0 :\ng 0 2 :\ng 2 0 :\n"

# (format, text, the reader's message, verify's message if it differs)
CASES = {
    "gr-repeated-header": ("gr", "p tw 2 0\np tw 2 0\n", "line 2: repeated header", None),
    "gr-bad-header": ("gr", "p tw 2\n", "line 1: expected 'p tw <n> <m>'", None),
    "gr-bad-edge": ("gr", "p tw 2 1\n1 2 2\n", "line 2: expected 'u v'", None),
    "gr-no-header": ("gr", "c no header\n", "missing 'p tw' header", None),
    "gr-duplicate-edge": ("gr", "p tw 2 2\n1 2\n2 1\n",
                          "line 3: duplicate edge 2 1; parallel edges are not supported", None),
    "gr-negative-count": ("gr", "p tw -1 0\n", "line 1: vertex count -1 is negative", None),
    "td-bad-header": ("td", "s td 1 2\nb 1 1 2\n",
                      "line 1: expected 's td <bags> <w+1> <n>'", None),
    "td-bad-tree-edge": ("td", "s td 2 2 2\nb 1 1 2\nb 2 1\n1 2 1\n",
                         "line 4: expected a tree edge '<id> <id>'", None),
    # Without an `s` line, verify reads the file as a .ptd.
    "td-no-header": ("td", "b 1 1 2\n", "missing 's td' header", "line 1: unknown record 'b'"),
    "td-unknown-bag": ("td", "s td 2 2 2\nb 1 1 2\nb 2 1\n1 3\n",
                       "line 4: tree edge (1,3) references unknown bag", None),
    "td-not-a-tree": ("td", "s td 3 2 2\nb 1 1 2\nb 2 1\nb 3 2\n1 2\n2 1\n",
                      "tree edges do not form a tree on the bags", None),
    "td-bag-without-id": ("td", TD + "b\n", "line 3: expected 'b <id> <vertices...>'", None),
    "td-root-without-id": ("td", TD + "r\n", "line 3: expected 'r <id>'", None),
    "td-root-with-junk": ("td", TD + "r 1 junk\n", "line 3: expected 'r <id>'", None),
    "ptd-no-colon": ("ptd", "p tw 1 1\n1 1\nn 0 0\n",
                     "line 3: expected 'n <id> <id> : <ids...>'", None),
    # The constructor wants one cone per directed tree edge and no other.
    "ptd-missing-cone": ("ptd", PTD.replace("g 2 0 :\n", ""),
                         "cones must cover every directed tree edge exactly", None),
    "ptd-cone-off-the-tree": ("ptd", PTD + "g 1 2 :\n",
                              "cones must cover every directed tree edge exactly", None),
}

READERS = {
    "gr": loads_graph,
    "td": lambda text: loads_td(text, loads_graph(GR)),
    "ptd": loads_ptd,
}


@pytest.mark.parametrize("fmt, text, message, cli_message", CASES.values(), ids=CASES)
def test_malformed_text(fmt, text, message, cli_message, tmp_path, capsys):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        READERS[fmt](text)

    graph, artifact = tmp_path / "g.gr", tmp_path / f"a.{'td' if fmt == 'gr' else fmt}"
    graph.write_text(text if fmt == "gr" else GR)
    artifact.write_text(TD if fmt == "gr" else text)
    assert main(["verify", str(artifact), "--graph", str(graph)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cli_message or message}\n"
