"""Child process of run.py for the setup_s metric.

Does what a benchmark process does before its first round (import,
gen_federation, init_params), then prints "ready"; the parent times the
span from spawning this process to reading that line.

    python3 bench/setup_probe.py <workload> <workload seed>
"""

import sys

import boot


def main(argv) -> int:
    boot.pin_threads()
    boot.use_source_tree()
    import workloads

    wl = workloads.WORKLOADS[argv[0]]
    workloads.first_round_ready(wl.task, workloads.train_seeds(int(argv[1]))[0])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
