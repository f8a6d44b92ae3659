"""Static layering guard: the transport and physical layers stay unaware of
transactions.

Criterion 6 checks at run time, by mutation, that the fabric ignores
transaction fields. This test reads the source of ``fabric.py`` and
``link.py`` instead, so a leak fails at once: neither module may import a
transaction-aware module, and the only packet fields they may read are the
ones that route, arbitrate, lock and carry a packet. In ``niu.py`` only the
packet port may touch flits: the socket half of each NIU sees packets.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nocsim"
LAYERS = ("fabric.py", "link.py")
FORBIDDEN_MODULES = {"niu", "transaction", "workload", "trace"}
ALLOWED_PACKET_FIELDS = {"dest", "src", "priority", "lock_marker", "payload", "sliced"}
# attributes that hold a packet: a flit's ``packet``, an output's active one
PACKET_HOLDERS = {"packet", "active_pkt"}
# the names that slice, send and frame flits, which only ``PacketPort`` uses
FLIT_NAMES = {"serialize", "Flit", "can_send", "send", "is_head", "next_flit"}


def _imported_names(tree: ast.Module) -> set:
    """Every dotted-name part a module imports from, and every name it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def _holds_packet(node: ast.AST, names: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in PACKET_HOLDERS
    if isinstance(node, ast.Call):  # e.g. self.pop_packet()
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr.endswith("_packet")
    return False


def _packet_reads(tree: ast.Module) -> set:
    """Attributes read or written on packet-valued expressions, per function.

    A name holds a packet if it is a parameter annotated ``Packet`` or is
    assigned from a packet-valued expression (to a fixed point, so chains of
    assignments are followed).
    """
    reads = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {
            arg.arg
            for arg in func.args.args + func.args.kwonlyargs
            if arg.annotation is not None
            and re.search(r"\bPacket\b", ast.unparse(arg.annotation))
        }
        assigns = [n for n in ast.walk(func) if isinstance(n, ast.Assign)]
        grown = True
        while grown:
            grown = False
            for node in assigns:
                if not _holds_packet(node.value, names):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        grown = True
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and _holds_packet(node.value, names):
                reads.add(node.attr)
    return reads


def _flit_names(tree: ast.AST, port: str = "PacketPort") -> set:
    """Flit names used outside the class ``port`` and the import statements."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ClassDef) and node.name == port
        ):
            skip.update(ast.walk(node))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node not in skip:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node not in skip:
            used.add(node.attr)
    return used & FLIT_NAMES


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


@pytest.mark.parametrize("name", LAYERS)
def test_layer_imports_no_transaction_module(name):
    assert _imported_names(_tree(name)) & FORBIDDEN_MODULES == set()


@pytest.mark.parametrize("name, seen", [
    ("fabric.py", {"dest", "src", "priority", "lock_marker"}),
    ("link.py", {"payload", "sliced"}),
])
def test_layer_reads_only_transport_packet_fields(name, seen):
    reads = _packet_reads(_tree(name))
    assert reads - ALLOWED_PACKET_FIELDS == set()
    # the walk reaches the routing, arbitration, lock and framing code
    assert seen <= reads


def test_niu_flits_stay_in_the_packet_port():
    tree = _tree("niu.py")
    assert _flit_names(tree) == set()
    # the port itself is where they are: with no port excluded, all are seen
    assert _flit_names(tree, port="") == FLIT_NAMES


def test_guard_catches_a_leak():
    leak = ast.parse(
        "def step(self, out):\n"
        "    pkt = out.active_pkt\n"
        "    if pkt.op is None:\n"
        "        pass\n"
        "from .transaction import Opcode\n"
    )
    assert _packet_reads(leak) == {"op"}
    assert _imported_names(leak) & FORBIDDEN_MODULES == {"transaction"}
    niu_leak = ast.parse(
        "class TargetNiu(PacketPort):\n"
        "    def step(self, cycle):\n"
        "        self.tx.send(cycle, self.flits[self.next_flit])\n"
    )
    assert _flit_names(niu_leak) == {"send", "next_flit"}
