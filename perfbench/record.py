"""Record the output digests of workloads into digests.json.

    python3 perfbench/record.py --seeds 1 2 3 [--workloads shear_search ...]

Runs every case of each workload once (CLI fixtures in-process; the timed
run checks that the subprocess prints the same bytes) and stores one digest
per case.  Re-record only when the case design changes: a digest that
changes with the library means its outputs changed.
"""

import argparse
import json

import run


def record(workloads, seeds):
    run.import_library()
    import cases

    digests = run.load_digests()
    for name in workloads:
        for seed in seeds:
            case_list = cases.make_cases(name, seed)
            out = []
            for case in case_list:
                docs = cases.run_case(case, cli=run.run_cli_inprocess)
                out.append(cases.digest(docs))
            digests.setdefault(name, {})[str(seed)] = out
            print(f"{name} seed {seed}: {len(out)} digests", flush=True)
            with open(run.DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = parser.parse_args()
    record(args.workloads, args.seeds)


if __name__ == "__main__":
    main()
