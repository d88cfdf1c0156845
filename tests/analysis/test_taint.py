"""Unit tests for the taint engine on small synthetic packages.

Each test writes a minimal package into ``tmp_path`` and runs the real
:func:`analyze_package` with the default registry, pinning one transfer
rule at a time: sources, sanitizers, interprocedural summaries, branch
joins, containers, attribute scoping, declassifiers, exemptions, and
pragma suppression.
"""

from pathlib import Path

from repro.analysis.taint import Taint, analyze_package


def write_pkg(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "pkg"
    for rel_path, source in files.items():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def run(tmp_path: Path, files: dict):
    return analyze_package(write_pkg(tmp_path, files))


def rules(findings):
    return [f.rule for f in findings]


# -- the Taint value ---------------------------------------------------------

def test_taint_union_and_truthiness():
    clean = Taint()
    key = Taint(kinds=frozenset({"key"}))
    sym = Taint(params=frozenset({1}))
    assert not clean and key and sym
    both = key.union(sym)
    assert both.kinds == {"key"} and both.params == {1}
    assert clean.union(key) == key


# -- sources and sinks -------------------------------------------------------

def test_name_source_key_to_print(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def leak(private_key):\n"
        "    print(private_key)\n"
    )})
    assert rules(findings) == ["taint/log-line"]
    assert findings[0].file == "m.py"
    assert findings[0].line == 2
    assert "key" in findings[0].message


def test_aead_open_yields_plaintext(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "class Store:\n"
        "    def leak(self, blob):\n"
        "        plain = self._aead.open(blob, b'aad')\n"
        "        print(plain)\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_open_without_crypto_receiver_is_clean(tmp_path):
    # Builtin file ``open`` must not count as a decrypt source.
    findings = run(tmp_path, {"m.py": (
        "def fine(path):\n"
        "    data = open(path).read()\n"
        "    print(data)\n"
    )})
    assert findings == []


def test_sanitizer_clears_taint(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "class Store:\n"
        "    def fine(self, blob):\n"
        "        plain = self._aead.open(blob, b'aad')\n"
        "        print(self._aead.seal(plain, b'aad'))\n"
        "        print(hexdigest(plain))\n"
    )})
    assert findings == []


def test_exception_message_sink(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def boom(admin_key):\n"
        "    raise ValueError(f'bad credential {admin_key!r}')\n"
    )})
    assert rules(findings) == ["taint/exception-message"]


# -- flow through expressions and statements ---------------------------------

def test_branch_join_keeps_both_arms(tmp_path):
    # A strong update in ``else`` must not erase the ``if`` arm.
    findings = run(tmp_path, {"m.py": (
        "class Store:\n"
        "    def leak(self, blob, cooked):\n"
        "        if cooked:\n"
        "            value = self._aead.open(blob, b'a')\n"
        "        else:\n"
        "            value = blob\n"
        "        print(value)\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_container_store_taints_container(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def leak(private_key):\n"
        "    frame = {'op': 'put'}\n"
        "    frame['mac'] = private_key\n"
        "    print(frame)\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_fstring_carries_taint(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def leak(private_key):\n"
        "    print(f'k={private_key!r}')\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_comparison_yields_clean(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def fine(private_key, guess):\n"
        "    print(private_key == guess)\n"
    )})
    assert findings == []


def test_len_is_clean(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def fine(private_key):\n"
        "    print(len(private_key))\n"
    )})
    assert findings == []


# -- interprocedural summaries -----------------------------------------------

def test_flow_through_helper_return(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def ident(x):\n"
        "    return x\n"
        "\n"
        "def leak(private_key):\n"
        "    print(ident(private_key))\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_sink_crossing_reported_at_caller(tmp_path):
    # The finding lands on the *call* feeding the sink-reaching helper,
    # names the callee, and one pragma there silences it.
    findings = run(tmp_path, {"m.py": (
        "def emit(x):\n"
        "    print(x)\n"
        "\n"
        "def leak(private_key):\n"
        "    emit(private_key)\n"
    )})
    assert rules(findings) == ["taint/log-line"]
    assert findings[0].line == 5
    assert "via emit()" in findings[0].message


def test_transitive_crossing_two_hops(tmp_path):
    # The finding fires where the *concrete* secret enters the chain
    # (line 8); the intermediate hop carries only symbolic taint and
    # extends ``relay``'s summary instead of spamming a finding.
    findings = run(tmp_path, {"m.py": (
        "def emit(x):\n"
        "    print(x)\n"
        "\n"
        "def relay(y):\n"
        "    emit(y)\n"
        "\n"
        "def leak(private_key):\n"
        "    relay(private_key)\n"
    )})
    assert [f.line for f in findings] == [8]
    assert "via relay()" in findings[0].message


def test_method_call_on_self_resolved(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "class Node:\n"
        "    def emit(self, x):\n"
        "        print(x)\n"
        "\n"
        "    def leak(self, private_key):\n"
        "        self.emit(private_key)\n"
    )})
    assert rules(findings) == ["taint/log-line"]
    assert findings[0].line == 6


# -- attribute scoping -------------------------------------------------------

def test_self_attribute_flows_across_methods(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "class Holder:\n"
        "    def __init__(self, private_key):\n"
        "        self.stash = private_key\n"
        "\n"
        "    def leak(self):\n"
        "        print(self.stash)\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_foreign_attribute_does_not_alias_package_wide(tmp_path):
    # ``req.result = <secret>`` on one class must not taint every
    # ``.result`` load in the package (no anonymous bucket reads).
    findings = run(tmp_path, {"m.py": (
        "class Writer:\n"
        "    def fill(self, req, private_key):\n"
        "        req.result = private_key\n"
        "\n"
        "class Other:\n"
        "    def fine(self, item):\n"
        "        print(item.result)\n"
    )})
    assert findings == []


def test_local_composite_attribute_is_flow_sensitive(tmp_path):
    # Within one function, ``obj.attr = secret; sink(obj.attr)`` flows.
    findings = run(tmp_path, {"m.py": (
        "def leak(req, private_key):\n"
        "    req.token = private_key\n"
        "    print(req.token)\n"
    )})
    assert rules(findings) == ["taint/log-line"]


# -- declassifiers and exemptions --------------------------------------------

def test_declassifier_clears_return(tmp_path):
    # ``StoredMeta.decode`` is declassified: its output is structured
    # metadata, not the secret payload.
    findings = run(tmp_path, {"m.py": (
        "class StoredMeta:\n"
        "    def decode(self, blob):\n"
        "        return blob\n"
        "\n"
        "def fine(private_key):\n"
        "    print(StoredMeta.decode(private_key))\n"
    )})
    assert findings == []


def test_every_declassifier_names_a_function_in_the_tree():
    # A declassifier whose target was renamed or moved out of ``src/``
    # silently stops applying; the tree then stays clean by accident.
    import repro
    from repro.analysis.callgraph import build_callgraph
    from repro.analysis.taintspec import DEFAULT_REGISTRY

    graph = build_callgraph(
        Path(repro.__file__).parent, DEFAULT_REGISTRY.excluded_paths
    )
    for qualname in sorted(DEFAULT_REGISTRY.declassified()):
        assert qualname in graph.by_qualname, qualname


def test_policy_decoder_raise_is_exempt_for_plaintext(tmp_path):
    files = {
        "policy/binary.py": (
            "class Decoder:\n"
            "    def decode(self, blob):\n"
            "        plain = self._aead.open(blob, b'a')\n"
            "        raise ValueError(f'bad policy {plain!r}')\n"
        ),
    }
    assert run(tmp_path, files) == []


def test_policy_decoder_raise_still_flags_key_material(tmp_path):
    files = {
        "policy/binary.py": (
            "def boom(private_key):\n"
            "    raise ValueError(f'bad {private_key!r}')\n"
        ),
    }
    assert rules(run(tmp_path, files)) == ["taint/exception-message"]


def test_analysis_tree_is_excluded(tmp_path):
    files = {
        "analysis/report.py": (
            "def show(private_key):\n"
            "    print(private_key)\n"
        ),
    }
    assert run(tmp_path, files) == []


# -- pragmas -----------------------------------------------------------------

def test_pragma_on_line_suppresses(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def fine(private_key):\n"
        "    print(private_key)  # pesos: allow[taint/log-line]\n"
    )})
    assert findings == []


def test_pragma_on_previous_line_suppresses(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def fine(private_key):\n"
        "    # pesos: allow[taint]\n"
        "    print(private_key)\n"
    )})
    assert findings == []


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def leak(private_key):\n"
        "    print(private_key)  # pesos: allow[taint/wire-frame]\n"
    )})
    assert rules(findings) == ["taint/log-line"]


def test_unrelated_code_stays_silent(tmp_path):
    findings = run(tmp_path, {"m.py": (
        "def fine(name, count):\n"
        "    total = count + 1\n"
        "    print(name, total)\n"
        "    return total\n"
    )})
    assert findings == []
