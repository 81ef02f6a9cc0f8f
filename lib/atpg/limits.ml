type t = {
  justify_backtracks : int;
  podem_backtracks : int;
  sat_conflicts : int;
}

let default =
  {
    justify_backtracks = 200;
    podem_backtracks = 1000;
    sat_conflicts = 100_000;
  }
