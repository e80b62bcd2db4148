(* Outputs pinned for seed 1. A run whose digest differs has computed a
   different execution: it fails, whatever its speed.

   The path workloads draw nothing from the seed, so their pin holds at
   every seed, and path64k_par must match path64k bit for bit. The
   explorer's search is exhaustive, so its trace and state counts hold
   at every seed too. Re-pin only with a change that is meant to alter
   the simulated execution, and say so in its description. *)

let path_full = "bd48db798886e2b8341343b1a615455f"
let path_check = "2acce50668926526e578960ef4f4942b"

let expected (w : Workloads.t) (size : Workloads.size) ~seed =
  match (w, size) with
  | (Path64k | Path64k_par), Full -> Some path_full
  | (Path64k | Path64k_par), Check -> Some path_check
  | Mcheck_n3, Full -> Some "traces=17419 states=43747"
  | Mcheck_n3, Check -> Some "traces=57 states=130"
  | Churn4k_audit, Full when seed = 1 -> Some "61270ad7c02392b5d60fabcd0d9c6ab3"
  | Churn4k_audit, Check when seed = 1 -> Some "72cfd0d565508a9dcbd3968cf8be39a9"
  | Fuzz_faults, Full when seed = 1 -> Some "5c6108dd9e16bd3f23892f42e6ff9fd1"
  | Fuzz_faults, Check when seed = 1 -> Some "c1bc841d99cf27a2cdbda249231e6953"
  | (Churn4k_audit | Fuzz_faults), _ -> None
