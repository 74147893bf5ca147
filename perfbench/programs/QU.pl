
% QU: the n-queens program (place N queens on an N*N board so that no
% queen attacks another). Reconstruction of the classic benchmark used
% throughout the Prolog analysis literature: a safe permutation of the
% row numbers is built one queen at a time, checking diagonals with
% integer arithmetic. Entry point: queens(N, Queens).

queens(N, Qs) :-
    range(1, N, Ns),
    place_queens(Ns, [], Qs).

% place_queens(Unplaced, Safe, Queens): extend the partial (safe)
% solution with the remaining row numbers.
place_queens([], Qs, Qs).
place_queens(Unplaced, Safe, Qs) :-
    select_queen(Q, Unplaced, Rest),
    not_attack(Safe, Q, 1),
    place_queens(Rest, [Q|Safe], Qs).

% not_attack(Queens, Q, D): queen Q placed D columns after the head of
% Queens attacks no queen on either diagonal.
not_attack([], _, _).
not_attack([Y|Ys], Q, D) :-
    Q =\= Y + D,
    Q =\= Y - D,
    D1 is D + 1,
    not_attack(Ys, Q, D1).

% select_queen(Q, Rows, Rest): nondeterministically pick a row.
select_queen(Q, [Q|Qs], Qs).
select_queen(Q, [R|Rs], [R|Ss]) :-
    select_queen(Q, Rs, Ss).

% range(M, N, [M,M+1,...,N]).
range(N, N, [N]).
range(M, N, [M|Ns]) :-
    M < N,
    M1 is M + 1,
    range(M1, N, Ns).

% Drivers used when the program is run standalone.
test_queens(N, Qs) :-
    queens(N, Qs),
    report(Qs).

report(Qs) :-
    length(Qs, Len),
    write(queens(Len, Qs)),
    nl.
