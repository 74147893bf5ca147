
% PE: a peephole optimizer over a small register-machine instruction
% set, in the style of the SB-Prolog compiler's peephole pass (Debray):
% rewrite rules map short instruction windows to cheaper sequences and
% the pass is iterated until no rule fires. Instructions are terms like
% move(R1, R2), push(R), pop(R), jump(L), label(L), add(R, V).
% Entry point: peephole_opt(Code, OptimizedCode).

peephole_opt(Code, Optimized) :-
    opt_pass(Code, Code1, Flag),
    finish(Flag, Code1, Optimized).

finish(unchanged, Code, Code).
finish(changed, Code, Optimized) :-
    peephole_opt(Code, Optimized).

% opt_pass(Code, Code1, Flag): apply the first matching rule at each
% position, scanning left to right.
opt_pass([], [], unchanged).
opt_pass(Code, Optimized, changed) :-
    rule(Code, Replacement, Rest),
    opt_pass(Rest, OptimizedRest, _),
    append(Replacement, OptimizedRest, Optimized).
opt_pass([Instruction|Code], [Instruction|Optimized], Flag) :-
    opt_pass(Code, Optimized, Flag).

% The rule base: each rule consumes a window at the front of the code
% and produces a (shorter or cheaper) replacement.
rule([move(R, R)|Rest], [], Rest).
rule([move(A, B), move(B, A)|Rest], [move(A, B)], Rest).
rule([move(A, B), move(A, B)|Rest], [move(A, B)], Rest).
rule([push(R), pop(R)|Rest], [], Rest).
rule([pop(R), push(R)|Rest], [peek(R)], Rest).
rule([jump(L), label(L)|Rest], [label(L)], Rest).
rule([add(R, 0)|Rest], [], Rest).
rule([sub(R, 0)|Rest], [], Rest).
rule([add(R, V1), add(R, V2)|Rest], [add(R, V)], Rest) :-
    integer(V1),
    integer(V2),
    V is V1 + V2.
rule([jump(L1), jump(_)|Rest], [jump(L1)], Rest).
rule([label(L), jump(L)|Rest], [label(L)], Rest).

append([], Xs, Xs).
append([X|Xs], Ys, [X|Zs]) :-
    append(Xs, Ys, Zs).

% A sample code sequence and driver, as shipped with the benchmark.
sample([move(r1, r1), push(r2), pop(r2), add(r3, 0),
        move(r1, r2), move(r2, r1), jump(l1), label(l1),
        add(r4, 1), add(r4, 2), sub(r5, 0), label(l2)]).

test_peephole(Optimized) :-
    sample(Code),
    peephole_opt(Code, Optimized).

% code_cost(Code, Cost): compare sequences by instruction count.
code_cost([], 0).
code_cost([_|Code], Cost) :-
    code_cost(Code, Rest),
    Cost is Rest + 1.
