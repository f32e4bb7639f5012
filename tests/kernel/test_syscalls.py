"""Syscall-layer behaviour through small in-simulation programs."""

import pytest

from repro import Host, SystemMode
from repro.core.attributes import timeshare_attrs
from repro.kernel.errors import (
    BadDescriptorError,
    ContainerPolicyError,
    WouldBlockError,
)
from repro.syscall import api


def run_program(host, body_factory, horizon_s=5.0):
    """Spawn a process running the program and run the simulation."""
    result = {}

    def main():
        value = yield from body_factory()
        result["value"] = value

    host.kernel.spawn_process("prog", main)
    host.run(until_us=host.sim.now + horizon_s * 1e6)
    return result


@pytest.fixture
def host():
    h = Host(mode=SystemMode.RC, seed=5)
    h.kernel.fs.add_file("/doc", 2048)
    return h


def test_compute_consumes_simulated_time(host):
    def program():
        start = yield api.GetTime()
        yield api.Compute(500.0)
        end = yield api.GetTime()
        return end - start

    result = run_program(host, program)
    assert result["value"] >= 500.0


def test_sleep_blocks_without_cpu(host):
    def program():
        start = yield api.GetTime()
        yield api.Sleep(10_000.0)
        end = yield api.GetTime()
        return end - start

    result = run_program(host, program)
    assert result["value"] >= 10_000.0
    # Sleep must not burn CPU.
    assert host.kernel.cpu.accounting.total_cpu_us < 1_000.0


def test_negative_compute_rejected(host):
    def program():
        try:
            yield api.Compute(-5.0)
        except Exception as err:
            return type(err).__name__
        return "no error"

    # Invalid Compute cost is a programming error surfaced loudly.
    with pytest.raises(Exception):
        run_program(host, program)


def test_container_create_and_usage_roundtrip(host):
    def program():
        fd = yield api.ContainerCreate("mine", attrs=timeshare_attrs(priority=6))
        attrs = yield api.ContainerGetAttrs(fd)
        yield api.ContainerBindThread(fd)
        yield api.Compute(1_000.0)
        usage = yield api.ContainerGetUsage(fd)
        return attrs.numeric_priority, usage.cpu_us

    result = run_program(host, program)
    priority, cpu = result["value"]
    assert priority == 6
    assert cpu >= 1_000.0


def test_container_bind_requires_leaf(host):
    def program():
        from repro.core.attributes import fixed_share_attrs

        parent = yield api.ContainerCreate("p", attrs=fixed_share_attrs(0.5))
        yield api.ContainerCreate("kid", parent_fd=parent)
        try:
            yield api.ContainerBindThread(parent)
        except ContainerPolicyError:
            return "rejected"
        return "accepted"

    assert run_program(host, program)["value"] == "rejected"


def test_container_api_disabled_in_unmodified_mode():
    host = Host(mode=SystemMode.UNMODIFIED, seed=5)

    def program():
        try:
            yield api.ContainerCreate("nope")
        except ContainerPolicyError:
            return "disabled"
        return "enabled"

    assert run_program(host, program)["value"] == "disabled"


def test_container_get_binding_returns_default(host):
    def program():
        fd = yield api.ContainerGetBinding()
        attrs = yield api.ContainerGetAttrs(fd)
        return attrs is not None

    assert run_program(host, program)["value"] is True


def test_close_unknown_fd_raises_ebadf(host):
    def program():
        try:
            yield api.Close(42)
        except BadDescriptorError:
            return "ebadf"
        return "closed"

    assert run_program(host, program)["value"] == "ebadf"


def test_bind_port_conflict(host):
    def program():
        fd1 = yield api.Socket()
        yield api.Bind(fd1, 80)
        fd2 = yield api.Socket()
        try:
            yield api.Bind(fd2, 80)
        except Exception as err:
            return type(err).__name__
        return "ok"

    assert run_program(host, program)["value"] == "AddressInUseError"


def test_bind_same_port_different_filters_ok(host):
    from repro.net.filters import AddrFilter

    def program():
        fd1 = yield api.Socket()
        yield api.Bind(fd1, 80)
        fd2 = yield api.Socket()
        yield api.Bind(fd2, 80, AddrFilter(template=0x0A000000, prefix_len=8))
        return "ok"

    assert run_program(host, program)["value"] == "ok"


def test_second_bind_is_rejected(host):
    """POSIX: bind() on a bound socket fails with EINVAL, listening or
    not, and leaves the first binding and its demultiplexing intact."""
    from repro.net.filters import AddrFilter
    from repro.net.packet import ip_addr

    def program():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        outcomes = []
        for listening in (False, True):
            if listening:
                yield api.Listen(fd)
            try:
                yield api.Bind(fd, 81, AddrFilter(ip_addr(10, 0, 0, 0), 8))
            except Exception as err:
                outcomes.append(type(err).__name__)
        # Inspect the stack while the process still holds the socket.
        stack = host.kernel.stack
        (socket,) = stack.listeners
        outcomes.append((socket.port, socket.addr_filter))
        outcomes.append(stack.demux_listener(80, ip_addr(10, 0, 0, 1)) is socket)
        outcomes.append(stack.demux_listener(81, ip_addr(10, 0, 0, 1)))
        return outcomes

    assert run_program(host, program)["value"] == [
        "InvalidArgumentError", "InvalidArgumentError", (80, None), True, None,
    ]


def test_accept_nonblocking_would_block(host):
    def program():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        yield api.Listen(fd)
        try:
            yield api.Accept(fd, blocking=False)
        except WouldBlockError:
            return "wouldblock"
        return "got one"

    assert run_program(host, program)["value"] == "wouldblock"


def test_select_timeout_returns_empty(host):
    def program():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        yield api.Listen(fd)
        ready = yield api.Select([fd], timeout_us=5_000.0)
        return ready

    assert run_program(host, program)["value"] == []


def test_select_empty_set_rejected(host):
    def program():
        try:
            yield api.Select([])
        except Exception as err:
            return type(err).__name__
        return "ok"

    assert run_program(host, program)["value"] == "InvalidArgumentError"


def test_read_file_returns_size_and_charges(host):
    def program():
        size = yield api.ReadFile("/doc")
        return size

    assert run_program(host, program)["value"] == 2048


def test_read_missing_file_raises(host):
    def program():
        try:
            yield api.ReadFile("/nope")
        except Exception as err:
            return type(err).__name__
        return "ok"

    assert run_program(host, program)["value"] == "FileNotFoundError_"


def test_pipe_roundtrip(host):
    def program():
        fd = yield api.PipeCreate()
        ok = yield api.PipeWrite(fd, {"n": 1})
        message = yield api.PipeRead(fd)
        return ok, message["n"]

    assert run_program(host, program)["value"] == (True, 1)


def test_pipe_nonblocking_read(host):
    def program():
        fd = yield api.PipeCreate()
        try:
            yield api.PipeRead(fd, blocking=False)
        except WouldBlockError:
            return "wouldblock"
        return "data"

    assert run_program(host, program)["value"] == "wouldblock"


def test_pipe_capacity_bound(host):
    def program():
        fd = yield api.PipeCreate(capacity=2)
        first = yield api.PipeWrite(fd, 1)
        second = yield api.PipeWrite(fd, 2)
        third = yield api.PipeWrite(fd, 3)
        return first, second, third

    assert run_program(host, program)["value"] == (True, True, False)


def test_pipe_blocking_read_woken_by_writer(host):
    log = []

    def reader_factory(pipe_fd):
        def reader():
            value = yield api.PipeRead(pipe_fd)
            log.append(value)

        return reader

    def program():
        fd = yield api.PipeCreate()
        yield api.SpawnThread(reader_factory(fd), name="reader")
        yield api.Sleep(5_000.0)
        yield api.PipeWrite(fd, "hello")
        yield api.Sleep(5_000.0)
        return "done"

    run_program(host, program)
    assert log == ["hello"]


def test_spawn_thread_inherits_binding(host):
    seen = {}

    def child():
        fd = yield api.ContainerGetBinding()
        attrs = yield api.ContainerGetAttrs(fd)
        seen["priority"] = attrs.numeric_priority

    def program():
        cfd = yield api.ContainerCreate("special", attrs=timeshare_attrs(priority=8))
        yield api.ContainerBindThread(cfd)
        yield api.SpawnThread(lambda: child(), name="kid")
        yield api.Sleep(5_000.0)

    run_program(host, program)
    assert seen["priority"] == 8


def test_fork_inherits_descriptors(host):
    seen = {}

    def child_main():
        def body():
            size = yield api.ReadFile("/doc")
            seen["size"] = size

        return body()

    def program():
        yield api.ContainerCreate("held")  # occupies an fd the child copies
        pid = yield api.Fork(child_main, name="kid")
        yield api.Sleep(10_000.0)
        return pid

    result = run_program(host, program)
    assert result["value"] >= 2
    assert seen["size"] == 2048


def test_fork_pass_fds_limits_inheritance(host):
    seen = {}

    def child_main():
        def body():
            try:
                yield api.ContainerGetAttrs(0)
            except BadDescriptorError:
                seen["inherited"] = False
            else:
                seen["inherited"] = True

        return body()

    def program():
        yield api.ContainerCreate("not-passed")  # fd 0
        yield api.Fork(child_main, name="kid", pass_fds=[])
        yield api.Sleep(10_000.0)

    run_program(host, program)
    assert seen["inherited"] is False


def test_container_send_to_other_process(host):
    seen = {}

    def peer_main():
        def body():
            yield api.Sleep(50_000.0)

        return body()

    def program():
        peer_pid = yield api.Fork(peer_main, name="peer", pass_fds=[])
        cfd = yield api.ContainerCreate("shared")
        remote_fd = yield api.ContainerSendTo(cfd, peer_pid)
        seen["remote_fd"] = remote_fd
        return remote_fd

    result = run_program(host, program)
    assert result["value"] >= 0


def test_get_handle_by_cid(host):
    target = host.kernel.containers.create("known")

    def program():
        fd = yield api.ContainerGetHandle(target.cid)
        attrs = yield api.ContainerGetAttrs(fd)
        return attrs is not None

    assert run_program(host, program)["value"] is True


def test_reset_scheduler_binding(host):
    def program():
        a = yield api.ContainerCreate("a")
        b = yield api.ContainerCreate("b")
        yield api.ContainerBindThread(a)
        yield api.ContainerBindThread(b)
        yield api.ContainerResetSchedBinding()
        return "ok"

    assert run_program(host, program)["value"] == "ok"
    # After reset, only the current binding remains in the set.
    # (The thread exited, so check is indirect: no crash, clean exit.)
