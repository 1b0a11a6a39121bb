#!/usr/bin/env python3
"""Analysis-as-a-service, end to end: daemon, client, derived artifacts.

Walks the full ``bside serve`` conversation:

1. start an analysis daemon (in-process, on an ephemeral port — pass
   ``--url`` to drive an already-running ``bside serve`` instead),
2. submit a binary by path, wait for completion (a long-poll), fetch
   its report,
3. resubmit the identical binary and watch it come back ``done`` from
   the submission itself — served from the content-addressed cache with
   zero analysis,
4. submit raw ELF bytes inline (the daemon never sees the client's disk),
5. derive enforcement artifacts — a seccomp-style filter and an
   OCI/Docker seccomp profile — from the completed job,
6. submit a whole directory as one fleet job and read the inventory.

Run:  python examples/service_client.py [--url http://host:port]
"""

import argparse
import os
import sys
import tempfile

from repro.corpus import ProgramBuilder
from repro.service import ServiceClient
from repro.syscalls import number_of
from repro.x86 import EAX, RDI


def build_demo(name: str, syscalls: list[str]):
    """A tiny static binary invoking the given syscalls then exiting."""
    p = ProgramBuilder(name)
    with p.function("_start"):
        for sc in syscalls:
            p.asm.mov(EAX, number_of(sc))
            p.asm.syscall()
        p.asm.mov(EAX, number_of("exit_group"))
        p.asm.xor(RDI, RDI)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", help="an already-running daemon "
                        "(default: start one in-process)")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="bside-service-demo-")
    bindir = os.path.join(workdir, "bin")
    os.makedirs(bindir)
    demo = build_demo("svc-demo", ["getpid", "write"])
    demo_path = os.path.join(bindir, "svc-demo")
    demo.save(demo_path)
    build_demo("svc-demo-2", ["read", "close"]).save(
        os.path.join(bindir, "svc-demo-2"))

    server = None
    if args.url:
        url = args.url
    else:
        from repro.service import AnalysisService, AsyncServiceServer

        service = AnalysisService(
            os.path.join(workdir, "state"), workers=2, queue_size=16,
        )
        server = AsyncServiceServer(service, port=0)
        server.start()
        url = server.url
        print(f"started in-process daemon at {url}")

    client = ServiceClient(url)
    print(f"health: {client.health()['status']}")

    # --- 1. submit by path, wait, fetch -------------------------------
    job = client.submit_path(demo_path)
    print(f"\nsubmitted {demo_path} as {job['id']} (status {job['status']})")
    job = client.wait(job["id"])
    report = client.report(job["id"])
    print(f"cold run: {len(report['syscalls'])} syscalls "
          f"in {job['metrics']['seconds']:.3f}s "
          f"(from_cache={job['metrics']['from_cache']})")

    # --- 2. warm resubmission: served from the artifact store ---------
    warm = client.submit_path(demo_path)
    print(f"warm resubmission: status {warm['status']} at submit time")
    warm = client.wait(warm["id"])
    assert warm["metrics"]["from_cache"], "warm job must be cache-served"
    print(f"warm run: from_cache={warm['metrics']['from_cache']} "
          f"in {warm['metrics']['seconds']:.3f}s — zero analysis")

    # --- 3. inline submission (bytes travel in the request) -----------
    inline = client.wait(
        client.submit_bytes("svc-demo-inline", demo.elf_bytes)["id"])
    print(f"inline upload: from_cache={inline['metrics']['from_cache']} "
          f"(same content hash, so the cache still hits)")

    # --- 4. derived enforcement artifacts -----------------------------
    filt = client.filter(job["id"])
    profile = client.profile(job["id"])
    print(f"\nderived filter allows {len(filt['allowed'])} syscalls "
          f"({', '.join(filt['allowed_names'])}), "
          f"blocks {filt['n_blocked']}")
    print(f"derived docker profile: defaultAction={profile['defaultAction']}, "
          f"{len(profile['syscalls'][0]['names'])} allowed names")

    # --- 5. a whole directory as one fleet job ------------------------
    fleet_job = client.wait(client.submit_directory(bindir)["id"])
    inventory = client.report(fleet_job["id"])["report"]
    print(f"\nfleet job over {bindir}: {inventory['fleet_size']} binaries, "
          f"{inventory['success_rate']:.0%} analyzed")

    stats = client.stats()
    print(f"\ndaemon stats: {stats['queue']['submitted']} submitted, "
          f"report cache {stats['cache']['kinds']['report']['hits']} hits / "
          f"{stats['cache']['kinds']['report']['misses']} misses, "
          f"{stats['pipeline_runs']} pipeline runs this process")

    if server is not None:
        server.stop()
        print("daemon stopped.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
