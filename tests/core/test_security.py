"""Container access control (the §4.1 extension)."""

import pytest

from repro import Host, SystemMode
from repro.core.security import (
    AccessDeniedError,
    ContainerAcl,
    DEFAULT_TRANSFER_RIGHTS,
    Right,
    acl_of,
    check_access,
)
from repro.core.container import ResourceContainer
from repro.kernel.kernel import KernelConfig
from repro.syscall import api


# ---------------------------------------------------------------------------
# Pure ACL mechanics
# ---------------------------------------------------------------------------


def test_owner_holds_all_rights():
    acl = ContainerAcl(owner_pid=7)
    assert acl.allows(7, Right.all())
    assert not acl.allows(8, Right.OBSERVE)


def test_unowned_is_permissive_via_check():
    container = ResourceContainer(1, "c")
    check_access(container, pid=99, needed=Right.ADMIN, enforce=True)


def test_grants_are_cumulative():
    acl = ContainerAcl(owner_pid=1)
    acl.grant(2, Right.OBSERVE)
    acl.grant(2, Right.BIND)
    assert acl.allows(2, Right.OBSERVE | Right.BIND)
    assert not acl.allows(2, Right.ADMIN)


def test_revoke_clears_grants():
    acl = ContainerAcl(owner_pid=1)
    acl.grant(2, Right.all())
    acl.revoke(2)
    assert not acl.allows(2, Right.OBSERVE)


def test_check_access_disabled_is_noop():
    container = ResourceContainer(1, "c")
    acl_of(container).owner_pid = 1
    check_access(container, pid=2, needed=Right.ADMIN, enforce=False)


def test_check_access_denies_with_message():
    container = ResourceContainer(1, "c")
    acl_of(container).owner_pid = 1
    with pytest.raises(AccessDeniedError, match="set_attributes"):
        check_access(
            container, pid=2, needed=Right.ADMIN, enforce=True,
            operation="set_attributes",
        )


def test_default_transfer_rights_cover_bind_and_observe():
    assert DEFAULT_TRANSFER_RIGHTS & Right.BIND
    assert DEFAULT_TRANSFER_RIGHTS & Right.OBSERVE
    assert not DEFAULT_TRANSFER_RIGHTS & Right.ADMIN


# ---------------------------------------------------------------------------
# Syscall-level enforcement
# ---------------------------------------------------------------------------


def acl_host():
    config = KernelConfig(mode=SystemMode.RC, container_acl=True)
    return Host(mode=SystemMode.RC, seed=79, config=config)


def run_program(host, body_factory, horizon_s=2.0):
    result = {}

    def main():
        result["value"] = yield from body_factory()

    host.kernel.spawn_process("prog", main)
    host.run(until_us=host.sim.now + horizon_s * 1e6)
    return result.get("value")


def test_creator_owns_and_operates():
    host = acl_host()

    def program():
        fd = yield api.ContainerCreate("mine")
        yield api.ContainerBindThread(fd)
        usage = yield api.ContainerGetUsage(fd)
        return usage is not None

    assert run_program(host, program) is True


def test_other_process_denied_without_grant():
    host = acl_host()
    outcome = {}

    def intruder_main():
        def body():
            yield api.Sleep(10_000.0)
            # Learn the victim's cid out-of-band (a scan).
            victim = next(
                c
                for c in host.kernel.containers.all_containers()
                if c.name == "secret"
            )
            try:
                yield api.ContainerGetHandle(victim.cid)
            except AccessDeniedError:
                outcome["handle"] = "denied"
            else:
                outcome["handle"] = "allowed"

        return body()

    def owner():
        yield api.ContainerCreate("secret")
        yield api.Fork(intruder_main, name="intruder", pass_fds=[])
        yield api.Sleep(50_000.0)

    host.kernel.spawn_process("owner", owner)
    host.run(until_us=200_000.0)
    assert outcome["handle"] == "denied"


def test_sendto_grants_bind_but_not_admin():
    host = acl_host()
    outcome = {}

    def worker_body(pipe_holder):
        pipe_fd, = pipe_holder
        item = yield api.PipeRead(pipe_fd)
        cfd = item["cfd"]
        yield api.ContainerBindThread(cfd)  # BIND: granted
        outcome["bind"] = "ok"
        from repro.core.attributes import timeshare_attrs

        try:
            yield api.ContainerSetAttrs(cfd, timeshare_attrs(priority=9))
        except AccessDeniedError:
            outcome["admin"] = "denied"
        else:
            outcome["admin"] = "allowed"

    pipe_holder = []

    def owner():
        pipe_fd = yield api.PipeCreate()
        pipe_holder.append(pipe_fd)
        pid = yield api.Fork(
            lambda: worker_body(pipe_holder), name="worker", pass_fds=[pipe_fd]
        )
        cfd = yield api.ContainerCreate("shared")
        remote_cfd = yield api.ContainerSendTo(cfd, pid)
        yield api.PipeWrite(pipe_fd, {"cfd": remote_cfd})
        yield api.Sleep(100_000.0)

    host.kernel.spawn_process("owner", owner)
    host.run(until_us=500_000.0)
    assert outcome == {"bind": "ok", "admin": "denied"}


def test_explicit_grant_of_admin():
    host = acl_host()
    outcome = {}

    def worker_body(pipe_holder):
        pipe_fd, = pipe_holder
        item = yield api.PipeRead(pipe_fd)
        from repro.core.attributes import timeshare_attrs

        try:
            yield api.ContainerSetAttrs(
                item["cfd"], timeshare_attrs(priority=9)
            )
        except AccessDeniedError:
            outcome["admin"] = "denied"
        else:
            outcome["admin"] = "allowed"

    pipe_holder = []

    def owner():
        pipe_fd = yield api.PipeCreate()
        pipe_holder.append(pipe_fd)
        pid = yield api.Fork(
            lambda: worker_body(pipe_holder), name="worker",
            pass_fds=[pipe_fd],
        )
        cfd = yield api.ContainerCreate("shared")
        remote_cfd = yield api.ContainerSendTo(cfd, pid)
        yield api.ContainerGrant(cfd, pid, Right.ADMIN)
        yield api.PipeWrite(pipe_fd, {"cfd": remote_cfd})
        yield api.Sleep(100_000.0)

    host.kernel.spawn_process("owner", owner)
    host.run(until_us=500_000.0)
    assert outcome == {"admin": "allowed"}


def test_acl_off_by_default_everything_allowed():
    host = Host(mode=SystemMode.RC, seed=79)
    outcome = {}

    def intruder_main():
        def body():
            yield api.Sleep(10_000.0)
            victim = next(
                c
                for c in host.kernel.containers.all_containers()
                if c.name == "secret"
            )
            fd = yield api.ContainerGetHandle(victim.cid)
            outcome["handle"] = fd is not None

        return body()

    def owner():
        yield api.ContainerCreate("secret")
        yield api.Fork(intruder_main, name="intruder", pass_fds=[])
        yield api.Sleep(50_000.0)

    host.kernel.spawn_process("owner", owner)
    host.run(until_us=200_000.0)
    assert outcome["handle"] is True
